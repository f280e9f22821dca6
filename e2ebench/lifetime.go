package main

import (
	"fmt"
	"strconv"
	"time"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/tensor"
)

// hw-lifetime: MLP-S on one HardwareBackend replica (ePCM, seeded
// arrays, read noise on) in device-lifetime mode. One goroutine submits
// lockstep rounds of exactly lifeMaxBatch requests and waits for every
// reply; MaxWait is far longer than a round, so each round is one batch.
// Batch boundaries, drift ticks, canary probes and recalibrations are
// then exact functions of the round count, never of goroutine timing.
//
// With these settings every second canary probe flags the replica, so
// the lifecycle repeats every 2×lifeCanaryEvery rounds: four plain
// rounds (Age + forward), one round behind a canary, one behind a
// recalibration. The median falls among the plain rounds and p90 among
// the recalibration rounds, each well inside its class. The timed phase
// ends at a cycle boundary (the first recalibration round after the
// deadline), so every run measures whole cycles.
const (
	lifeModel            = "MLP-S"
	lifeMaxBatch         = 4
	lifeMaxWait          = time.Hour
	lifeCanaryEvery      = 3
	lifeCanarySize       = 16
	lifeFloor            = 0.95
	lifeFlagAfter        = 2
	lifeSecondsPerSample = 1.0   // simulated device seconds per served sample
	lifeReadNoise        = 0.001 // keeps a fresh replica at 16/16 on the canary
	lifeArraySeed        = 7
	lifeCanarySeed       = 2
	lifePayloads         = 64
	// lifeVariants input sets exist; the seed picks one. The analog read
	// noise draws depend on the inputs, so each set has its own pinned
	// reply classes and canary trace (pins.json).
	lifeVariants = 4
	// lifePinnedRounds caps a run (and is how far the pins reach). A
	// 30-s run takes about 50 rounds today; a run that reaches the cap
	// before its deadline says so in a note.
	lifePinnedRounds = 480
)

type hwLifetime struct {
	env
	srv    *serve.Server
	inputs []*tensor.Float
	pin    *lifetimePin // nil while pins are being written
	// limit caps the rounds of a run (0: lifePinnedRounds).
	limit   int
	rounds  int
	classes []byte
}

func lifetimeVariant(seed int64) int {
	return int(((seed % lifeVariants) + lifeVariants) % lifeVariants)
}

func (w *hwLifetime) setup() error {
	if pins != nil {
		w.pin = &pins.Lifetime[lifetimeVariant(w.seed)]
	}
	m, err := bnn.NewModel(lifeModel, 1)
	if err != nil {
		return err
	}
	size := 1
	for _, d := range m.InputShape {
		size *= d
	}
	w.inputs = serve.SyntheticInputs(size, lifePayloads, 1000+int64(lifetimeVariant(w.seed)))
	hw := robust.DefaultConfig(device.EPCM)
	hw.Array.Seed = lifeArraySeed
	hw.Array.EPCM.ReadNoiseSigma = lifeReadNoise
	hb, err := serve.NewHardwareBackend(m, hw)
	if err != nil {
		return err
	}
	var backend serve.Backend = hb
	if w.probe != nil {
		backend = &tracedBackend{Backend: hb, p: w.probe, canarySize: lifeCanarySize}
	}
	canary, err := serve.NewCanarySet(m, serve.SyntheticInputs(size, lifeCanarySize, lifeCanarySeed))
	if err != nil {
		return err
	}
	w.srv, err = serve.New(serve.Config{
		Backend:  backend,
		MaxBatch: lifeMaxBatch,
		MaxWait:  lifeMaxWait,
		QueueCap: 4 * lifeMaxBatch,
		Workers:  serverWorkers,
		Lifetime: &serve.LifetimeConfig{
			Clock:       serve.BatchClock{SecondsPerSample: lifeSecondsPerSample},
			CanaryEvery: lifeCanaryEvery,
			Canary:      canary,
			Floor:       lifeFloor,
			FlagAfter:   lifeFlagAfter,
		},
	})
	if err != nil {
		return err
	}
	w.srv.Start()
	return nil
}

// measure runs lockstep rounds until the deadline has passed and the
// last round was the one behind a recalibration, or until the round
// limit. d <= 0 runs exactly the limit.
func (w *hwLifetime) measure(d time.Duration) (*outcome, error) {
	out := &outcome{}
	limit := w.limit
	if limit <= 0 || limit > lifePinnedRounds {
		limit = lifePinnedRounds
	}
	begin := time.Now()
	deadline := begin.Add(d)
	var last time.Time
	var recals int64
	chans := make([]<-chan serve.Reply, lifeMaxBatch)
	starts := make([]time.Time, lifeMaxBatch)
	ends := []time.Time{} // last reply of each round
	lats := [][]float64{} // latencies of each round's good replies
	for r := 0; r < limit; r++ {
		lats = append(lats, nil)
		for k := range chans {
			i := r*lifeMaxBatch + k
			starts[k] = time.Now()
			ch, err := w.srv.SubmitAsync(w.inputs[i%lifePayloads])
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
			chans[k] = ch
		}
		for k, ch := range chans {
			rep := <-ch
			last = time.Now()
			out.attempted++
			class := byte('?')
			if rep.Err == nil && rep.Result.Class >= 0 && rep.Result.Class < 10 {
				class = byte('0' + rep.Result.Class)
			}
			w.classes = append(w.classes, class)
			i := r*lifeMaxBatch + k
			if rep.Err != nil || (w.pin != nil && w.pin.Classes[i] != class) {
				out.failed++
				continue
			}
			lats[r] = append(lats[r], ms(last.Sub(starts[k])))
		}
		ends = append(ends, last)
		w.rounds = r + 1
		// Replies of round r arrive after the lifecycle of batch r-1 ran,
		// so a new recalibration here means this round waited behind one.
		n := w.srv.Stats().Lifetime.Recalibrations
		behindRecal := n > recals
		recals = n
		if d > 0 && behindRecal && last.After(deadline) {
			break
		}
	}
	if d > 0 && last.Before(deadline) {
		out.notes = append(out.notes, fmt.Sprintf("the %d pinned rounds ran out %.1f s before the deadline; "+
			"extend lifePinnedRounds and the pins to measure the whole run", limit, deadline.Sub(last).Seconds()))
	}
	if out.failed > 0 {
		out.fail("%d of %d hardware replies failed or differ from the pinned classes", out.failed, out.attempted)
	}
	out.windows = cycleWindows(begin, ends, lats)
	return out, nil
}

// cycleWindows cuts the rounds into lifecycle cycles: rounds
// 6k+1 … 6k+6 hold four plain rounds, one behind a canary and one
// behind a recalibration. Round 0 opens the first cycle's clock. A run
// shorter than one cycle is one window.
func cycleWindows(begin time.Time, ends []time.Time, lats [][]float64) []window {
	const cycle = 2 * lifeCanaryEvery
	var ws []window
	for lo := 1; lo+cycle <= len(ends); lo += cycle {
		w := window{from: ends[lo-1], to: ends[lo+cycle-1], rate: true}
		for _, l := range lats[lo : lo+cycle] {
			w.lat = append(w.lat, l...)
			w.ops += len(l)
		}
		ws = append(ws, w)
	}
	if len(ws) == 0 && len(ends) > 0 {
		w := window{from: begin, to: ends[len(ends)-1], rate: true}
		for _, l := range lats {
			w.lat = append(w.lat, l...)
			w.ops += len(l)
		}
		ws = append(ws, w)
	}
	return ws
}

// finish stops the server (which waits for the last batch's lifecycle)
// and checks the lifetime counts and canary trace against the pins.
func (w *hwLifetime) finish(out *outcome) error {
	if w.srv == nil {
		return nil
	}
	w.srv.Stop()
	if w.rounds == 0 {
		return nil
	}
	st := w.srv.Stats()
	got := encodeTrace(w.srv.Trace())
	if w.pin != nil {
		var pinned []serve.CanaryPoint
		var wantRecals int64
		for _, p := range w.pin.Trace {
			if p.ServedSamples <= int64(w.rounds*lifeMaxBatch) {
				pinned = append(pinned, p)
				if p.PostRecal {
					wantRecals++
				}
			}
		}
		want := encodeTrace(pinned)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		life := st.Lifetime
		if !same {
			out.fail("canary trace differs from the pinned one (%d points, want %d)", len(got), len(want))
		}
		if st.Batches != int64(w.rounds) {
			out.fail("%d batches for %d rounds", st.Batches, w.rounds)
		}
		if life.Replicas[0].CanaryRuns != int64(len(want)) {
			out.fail("%d canary runs, want %d", life.Replicas[0].CanaryRuns, len(want))
		}
		if life.Recalibrations != wantRecals {
			out.fail("%d recalibrations, want %d", life.Recalibrations, wantRecals)
		}
		if life.Retired != 0 {
			out.fail("%d replicas retired", life.Retired)
		}
		if len(out.problems) > 0 {
			// A lifetime that went wrong invalidates every request of it.
			out.failed = out.attempted
		}
	}
	if w.probe != nil {
		out.layers = w.layers(st)
	}
	return nil
}

func (w *hwLifetime) layers(st serve.Snapshot) map[string]float64 {
	p := w.probe
	l := map[string]float64{
		"crossbar.program_ms":   sum(durMs(p.get(spanReplicaNew))),
		"crossbar.age_ms_p50":   median(durMs(p.get(spanAge))),
		"crossbar.age_calls":    float64(len(p.get(spanAge))),
		"serve.canary_ms_p50":   median(durMs(p.get(spanCanary))),
		"serve.canary_runs":     float64(st.Lifetime.Replicas[0].CanaryRuns),
		"crossbar.recal_ms_p50": median(durMs(p.get(spanRecal))),
		"serve.recalibrations":  float64(st.Lifetime.Recalibrations),
	}
	var busy time.Duration
	samples := 0
	for _, s := range p.get(spanRunBatch) {
		busy += s.dur
		samples += s.n
	}
	if samples > 0 {
		l["robust.forward_ms_per_sample"] = ms(busy) / float64(samples)
	}
	return l
}

// encodeTrace renders canary points in the pinned text form.
func encodeTrace(pts []serve.CanaryPoint) []string {
	out := make([]string, len(pts))
	for i, p := range pts {
		out[i] = fmt.Sprintf("r%d s%d age=%s acc=%s flagged=%t post=%t", p.Replica, p.ServedSamples,
			strconv.FormatFloat(p.AgeSeconds, 'g', -1, 64), strconv.FormatFloat(p.Accuracy, 'g', -1, 64),
			p.Flagged, p.PostRecal)
	}
	return out
}
