package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/tensor"
)

// Load generation: an embedded open-loop Poisson generator (arrivals
// keep coming whether or not the server keeps up — the regime where
// admission control matters) and a closed-loop generator (each client
// waits for its reply — the regime that measures service capacity).
// Arrival schedules and payload selection are seeded, so two runs of
// the same sweep offer the identical request sequence; wall-clock
// latencies still vary with the host, which is why the simulated
// accelerator view (Pricer) is the reproducible half of the report.

// LoadConfig parameterizes one load-generation run.
type LoadConfig struct {
	// Rate > 0 selects the open-loop Poisson generator at that many
	// requests/s; Rate == 0 selects the closed loop.
	Rate float64
	// Clients is the closed-loop concurrency (default 4; ignored when
	// Rate > 0).
	Clients int
	// Requests is the total number of arrivals (required).
	Requests int
	// Seed drives the arrival schedule.
	Seed int64
	// Arrivals, when non-empty, is an explicit open-loop arrival
	// schedule (offsets from the run start); it overrides Rate/Seed and
	// must have at least Requests entries. See DiurnalSchedule.
	Arrivals []time.Duration
	// Inputs are the request payloads, cycled in arrival order
	// (required — see SyntheticInputs).
	Inputs []*tensor.Float
}

func (c LoadConfig) validate() error {
	switch {
	case c.Requests <= 0:
		return fmt.Errorf("serve: loadgen needs Requests > 0, got %d", c.Requests)
	case len(c.Inputs) == 0:
		return fmt.Errorf("serve: loadgen needs at least one input payload")
	case !(c.Rate >= 0) || math.IsInf(c.Rate, 1):
		return fmt.Errorf("serve: arrival rate %g must be finite and ≥ 0", c.Rate)
	case len(c.Arrivals) > 0 && len(c.Arrivals) < c.Requests:
		return fmt.Errorf("serve: %d arrivals for %d requests", len(c.Arrivals), c.Requests)
	}
	return nil
}

// LoadReport is the outcome of one run.
type LoadReport struct {
	// OfferedPerSec echoes the open-loop rate (0 for closed loop).
	OfferedPerSec float64 `json:"offered_per_sec"`
	// DurationSec is first arrival to last reply.
	DurationSec float64 `json:"duration_sec"`
	// AchievedPerSec is Completed / Duration.
	AchievedPerSec float64 `json:"achieved_per_sec"`
	// Completed / Shed / Failed partition the Requests.
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	// Stats is the server's metrics snapshot at the end of the run.
	Stats Snapshot `json:"stats"`
}

// Schedule returns the deterministic open-loop arrival offsets for a
// seed: n exponential inter-arrival gaps at the given rate, summed into
// offsets from the run start. Identical (seed, rate, n) → identical
// schedule, on any host.
func Schedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// DiurnalSchedule returns deterministic arrival offsets for a
// rate-modulated (nonhomogeneous) Poisson process: the instantaneous
// rate swings sinusoidally between baseRate and peakRate over the given
// period, starting at the trough. Arrivals are drawn by Lewis–Shedler
// thinning of a homogeneous peakRate process, so identical arguments
// give the identical schedule on any host — the diurnal counterpart of
// Schedule.
func DiurnalSchedule(seed int64, baseRate, peakRate float64, period time.Duration, n int) ([]time.Duration, error) {
	switch {
	case !(baseRate > 0) || math.IsInf(baseRate, 1):
		return nil, fmt.Errorf("serve: diurnal base rate %g must be finite and > 0", baseRate)
	case !(peakRate >= baseRate) || math.IsInf(peakRate, 1):
		// A NaN peak would never accept an arrival.
		return nil, fmt.Errorf("serve: diurnal peak rate %g must be finite and ≥ base %g", peakRate, baseRate)
	case period <= 0:
		return nil, fmt.Errorf("serve: diurnal period %v must be > 0", period)
	case n <= 0:
		return nil, fmt.Errorf("serve: diurnal schedule needs n > 0, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, 0, n)
	t := 0.0
	ps := period.Seconds()
	for len(out) < n {
		t += rng.ExpFloat64() / peakRate
		// rate(t): trough at t=0, crest at t=period/2.
		rate := baseRate + (peakRate-baseRate)*0.5*(1-math.Cos(2*math.Pi*t/ps))
		if rng.Float64()*peakRate <= rate {
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
	return out, nil
}

// Run drives one server with one load configuration. The server is
// started if it was not already; it is left running (callers own Stop)
// so sweeps can inspect it afterwards.
func Run(s *Server, cfg LoadConfig) (LoadReport, error) {
	if err := cfg.validate(); err != nil {
		return LoadReport{}, err
	}
	s.Start()
	var completed, shed, failed atomic.Int64
	submit := func(i int) {
		_, err := s.submit(cfg.Inputs[i%len(cfg.Inputs)])
		switch {
		case err == nil:
			completed.Add(1)
		case errors.Is(err, ErrOverloaded):
			shed.Add(1)
		default:
			failed.Add(1)
		}
	}
	begin := time.Now()
	var wg sync.WaitGroup
	schedule := cfg.Arrivals
	if len(schedule) == 0 && cfg.Rate > 0 {
		schedule = Schedule(cfg.Seed, cfg.Rate, cfg.Requests)
	}
	if len(schedule) > 0 {
		for i, off := range schedule[:cfg.Requests] {
			if d := time.Until(begin.Add(off)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				submit(i)
			}(i)
		}
	} else {
		clients := cfg.Clients
		if clients < 1 {
			clients = 4
		}
		if clients > cfg.Requests {
			clients = cfg.Requests
		}
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(c int) {
				defer wg.Done()
				// Client c issues arrivals c, c+clients, c+2·clients, …
				for i := c; i < cfg.Requests; i += clients {
					submit(i)
				}
			}(c)
		}
	}
	wg.Wait()
	dur := time.Since(begin).Seconds()
	rep := LoadReport{
		OfferedPerSec: cfg.Rate,
		DurationSec:   dur,
		Completed:     completed.Load(),
		Shed:          shed.Load(),
		Failed:        failed.Load(),
		Stats:         s.Stats(),
	}
	if dur > 0 {
		rep.AchievedPerSec = float64(rep.Completed) / dur
	}
	return rep, nil
}

// RatePoint is one arrival rate of a sweep.
type RatePoint struct {
	RatePerSec float64    `json:"rate_per_sec"`
	Report     LoadReport `json:"report"`
}

// SweepRates runs the open-loop generator at every rate, each against a
// fresh server from newServer (fresh metrics, fresh queue), and returns
// the latency–throughput curve. Rates at or beyond the backend's
// capacity show shedding engaging while tail latency stays bounded by
// the queue depth — the overload half of the SLO story.
func SweepRates(newServer func() (*Server, error), rates []float64, base LoadConfig) ([]RatePoint, error) {
	if len(rates) == 0 {
		return nil, fmt.Errorf("serve: sweep needs at least one rate")
	}
	out := make([]RatePoint, 0, len(rates))
	for _, rate := range rates {
		if rate <= 0 {
			return nil, fmt.Errorf("serve: sweep rate %g must be > 0", rate)
		}
		s, err := newServer()
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Rate = rate
		rep, err := Run(s, cfg)
		s.Stop()
		if err != nil {
			return nil, err
		}
		out = append(out, RatePoint{RatePerSec: rate, Report: rep})
	}
	return out, nil
}

// SyntheticInputs builds n seeded request payloads of the given element
// count, in the flat wire format the HTTP front end uses.
func SyntheticInputs(size, n int, seed int64) []*tensor.Float {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Float, n)
	for i := range out {
		x := tensor.NewFloat(size)
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

// LoadCurve renders a rate sweep; the CSV adds the failure, shed-rate,
// max-latency and sim-energy columns the text table leaves out.
func LoadCurve(points []RatePoint) *report.Table {
	t := &report.Table{
		Title: "Latency–throughput curve (open-loop Poisson arrivals)",
		Cols: []report.Col{
			{Head: "rate/s", Key: "rate_per_sec", Fmt: "%.0f"}, {Head: "achieved/s", Key: "achieved_per_sec", Fmt: "%.0f"},
			{Head: "completed", Key: "completed"}, {Head: "shed", Key: "shed"}, {Key: "failed"}, {Key: "shed_rate"},
			{Head: "mean batch", Key: "mean_batch", Fmt: "%.1f"}, {Head: "p50 ms", Key: "p50_ms", Fmt: "%.3f"},
			{Head: "p95 ms", Key: "p95_ms", Fmt: "%.3f"}, {Head: "p99 ms", Key: "p99_ms", Fmt: "%.3f"}, {Key: "max_ms"},
			{Head: "sim inf/s", Key: "sim_per_sec", Fmt: "%.0f"}, {Head: "sim ceiling", Key: "sim_ceiling_per_sec", Fmt: "%.0f"},
			{Key: "sim_energy_pj"},
		},
	}
	for _, p := range points {
		st := p.Report.Stats
		simPerSec, simCeil, simPJ := 0.0, 0.0, 0.0
		if st.Sim != nil {
			simPerSec, simCeil, simPJ = st.Sim.PerSec, st.Sim.CeilingPerSec, st.Sim.MeanEnergyPJ
		}
		t.Add(p.RatePerSec, p.Report.AchievedPerSec, p.Report.Completed, p.Report.Shed, p.Report.Failed,
			st.ShedRate, st.MeanBatch, st.Latency.P50, st.Latency.P95, st.Latency.P99, st.Latency.Max,
			simPerSec, simCeil, simPJ)
	}
	return t
}

// BatchPoint is one dynamic-batcher size cap of a MaxBatch sweep.
type BatchPoint struct {
	MaxBatch int        `json:"max_batch"`
	Report   LoadReport `json:"report"`
}

// SweepMaxBatch runs the closed-loop generator against a fresh server
// for every MaxBatch cap and returns the throughput curve. This is the
// software-batching story: the bit-parallel forward path packs up to 64
// samples into each machine word, so the software backend's throughput
// climbs with the batcher's size cap until a lane word is full. The
// closed loop keeps 2×MaxBatch clients in flight (unless base.Clients
// is set), so each point measures the backend at its own saturation
// batch size rather than an arrival-rate artifact.
func SweepMaxBatch(newServer func(maxBatch int) (*Server, error), maxBatches []int, base LoadConfig) ([]BatchPoint, error) {
	if len(maxBatches) == 0 {
		return nil, fmt.Errorf("serve: sweep needs at least one MaxBatch")
	}
	out := make([]BatchPoint, 0, len(maxBatches))
	for _, mb := range maxBatches {
		if mb < 1 {
			return nil, fmt.Errorf("serve: MaxBatch %d must be ≥ 1", mb)
		}
		s, err := newServer(mb)
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Rate = 0
		if cfg.Clients == 0 {
			cfg.Clients = 2 * mb
		}
		rep, err := Run(s, cfg)
		s.Stop()
		if err != nil {
			return nil, err
		}
		out = append(out, BatchPoint{MaxBatch: mb, Report: rep})
	}
	return out, nil
}

// BatchCurve renders a MaxBatch sweep; the CSV adds the shed and
// failure counts.
func BatchCurve(points []BatchPoint) *report.Table {
	t := &report.Table{
		Title: "Throughput vs dynamic-batch cap (closed loop, bit-parallel software path)",
		Cols: []report.Col{
			{Head: "max-batch", Key: "max_batch"}, {Head: "achieved/s", Key: "achieved_per_sec", Fmt: "%.0f"},
			{Head: "completed", Key: "completed"}, {Key: "shed"}, {Key: "failed"},
			{Head: "mean batch", Key: "mean_batch", Fmt: "%.1f"}, {Head: "p50 ms", Key: "p50_ms", Fmt: "%.3f"},
			{Head: "p95 ms", Key: "p95_ms", Fmt: "%.3f"}, {Head: "p99 ms", Key: "p99_ms", Fmt: "%.3f"},
			{Head: "sim inf/s", Key: "sim_per_sec", Fmt: "%.0f"},
		},
	}
	for _, p := range points {
		st := p.Report.Stats
		simPerSec := 0.0
		if st.Sim != nil {
			simPerSec = st.Sim.PerSec
		}
		t.Add(p.MaxBatch, p.Report.AchievedPerSec, p.Report.Completed, p.Report.Shed, p.Report.Failed,
			st.MeanBatch, st.Latency.P50, st.Latency.P95, st.Latency.P99, simPerSec)
	}
	return t
}
