package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/sim"
)

// dse-search: the offline path. Set-up runs eval.Run (the Fig. 7/8
// reproduction, checked byte for byte against its golden CSV) and
// builds the zoo. Each operation is one cold SearchPlacer compile: a
// fresh PlacementEvaluator, so no search profits from another's cache.
// Operations come in cycles of every zoo network × dseDesigns, in an
// order shuffled by the seed, each cycle with one of dseSeeds search
// seeds; the timed phase runs whole blocks of dseSeeds cycles, so the
// mix of networks and seeds is the same in every run.
const (
	dseBatch  = 64 // objective batch size of the evaluator
	dseSeeds  = 4  // search seeds per (network, design), all pinned
	fig78Path = "internal/eval/testdata/fig78_pre_pr3.csv"
)

var dseDesigns = []arch.Design{arch.EinsteinBarrier, arch.TacitEPCM}

type dseSearch struct {
	env
	cfg       eval.Config
	zoo       []*bnn.Model
	simulator *sim.Simulator
	fig78     time.Duration
	zooBuild  time.Duration
	warm      outcome
}

// searchSpans is what a traced search measured beside its result.
type searchSpans struct {
	lower, search time.Duration
	evalNs        time.Duration
	scores        int64
	probes, hits  int64
}

func (w *dseSearch) setup() error {
	w.cfg = eval.DefaultConfig()
	w.cfg.Workers = evalWorkers
	t := time.Now()
	rep, err := eval.Run(w.cfg)
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := rep.WriteCSV(&got); err != nil {
		return err
	}
	w.fig78 = time.Since(t)
	want, err := os.ReadFile(filepath.Join(w.repo, fig78Path))
	if err != nil {
		return err
	}
	w.warm.attempted++
	if !bytes.Equal(got.Bytes(), want) {
		w.warm.failed++
		w.warm.fail("Fig. 7/8 CSV differs from %s", fig78Path)
	}

	t = time.Now()
	if w.zoo, err = bnn.Zoo(w.cfg.Seed); err != nil {
		return err
	}
	w.zooBuild = time.Since(t)
	if w.simulator, err = sim.New(w.cfg.Arch, w.cfg.Costs); err != nil {
		return err
	}
	// Warm-up: one checked search.
	w.warm.attempted++
	if !w.timedCheck(w.zoo[0], dseDesigns[0], 1, &w.warm).ok {
		w.warm.failed++
	}
	return nil
}

// search runs one cold placement search and returns its result in the
// pinned form.
func (w *dseSearch) search(m *bnn.Model, d arch.Design, seed int64) (searchPin, searchSpans, error) {
	var sp searchSpans
	pe, err := w.simulator.PlacementEvaluator(dseBatch)
	if err != nil {
		return searchPin{}, sp, err
	}
	var ev compiler.Evaluator = pe
	var tally *evalTally
	if w.probe != nil {
		ev, tally = wrapEvaluator(pe, w.probe)
	}
	t := time.Now()
	placer, err := compiler.NewSearchPlacer(m, w.cfg.Arch, d, ev,
		compiler.SearchOptions{Seed: seed, Workers: searchWorkers})
	if err != nil {
		return searchPin{}, sp, err
	}
	t1 := time.Now()
	c, err := compiler.CompileWith(m, w.cfg.Arch, d, compiler.Options{Placer: placer})
	if err != nil {
		return searchPin{}, sp, err
	}
	t2 := time.Now()
	sp.lower, sp.search = t1.Sub(t), t2.Sub(t1)
	if tally != nil {
		sp.evalNs = time.Duration(tally.evalNs.Load())
		sp.scores, sp.probes, sp.hits = tally.scores.Load(), tally.probes.Load(), tally.hits.Load()
		w.probe.record(spanLower, t, sp.lower, 0, 0)
		w.probe.record(spanSearch, t1, sp.search, int(sp.scores+sp.probes), 0)
	}
	st := placer.Stats()
	fp := sha256.Sum256([]byte(c.Placement.Fingerprint()))
	return searchPin{
		BestScore:   st.BestScore,
		Fingerprint: hex.EncodeToString(fp[:]),
		Steps:       st.Steps,
		Counters:    pe.Counters(),
	}, sp, nil
}

// searchRun is one checked search: its result, wall time and spans.
type searchRun struct {
	res searchPin
	dur time.Duration
	sp  searchSpans
	ok  bool
}

// timedCheck runs one search and compares it with its pin, recording a
// mismatch in o.
func (w *dseSearch) timedCheck(m *bnn.Model, d arch.Design, seed int64, o *outcome) searchRun {
	t := time.Now()
	got, sp, err := w.search(m, d, seed)
	r := searchRun{res: got, dur: time.Since(t), sp: sp}
	key := searchKey(m.Name(), d, seed)
	if pins == nil { // pins are being written
		r.ok = err == nil
		return r
	}
	switch want, ok := pins.Search[key]; {
	case err != nil:
		o.fail("search %s: %v", key, err)
	case !ok:
		o.fail("search %s: no pinned result", key)
	case got != want:
		o.fail("search %s: got %+v, pinned %+v", key, got, want)
	default:
		r.ok = true
	}
	return r
}

// measure runs blocks of dseSeeds cycles, one cycle per search seed,
// until the deadline; each block (48 searches) is one window.
func (w *dseSearch) measure(d time.Duration) (*outcome, error) {
	out := &outcome{attempted: w.warm.attempted, failed: w.warm.failed, problems: w.warm.problems}
	rng := rand.New(rand.NewSource(w.seed))
	pairs := len(w.zoo) * len(dseDesigns)
	var runs []searchRun
	begin := time.Now()
	for cycle := int64(0); cycle%dseSeeds != 0 || cycle == 0 || time.Since(begin) < d; cycle++ {
		if cycle%dseSeeds == 0 {
			out.windows = append(out.windows, window{from: time.Now(), rate: true})
		}
		win := &out.windows[len(out.windows)-1]
		seed := 1 + ((w.seed+cycle)%dseSeeds+dseSeeds)%dseSeeds
		for _, j := range rng.Perm(pairs) {
			m, design := w.zoo[j/len(dseDesigns)], dseDesigns[j%len(dseDesigns)]
			out.attempted++
			r := w.timedCheck(m, design, seed, out)
			if !r.ok {
				out.failed++
				continue
			}
			win.lat = append(win.lat, ms(r.dur))
			win.ops++
			runs = append(runs, r)
		}
		win.to = time.Now()
	}
	if w.probe != nil {
		out.layers = w.layers(runs, begin)
	}
	return out, nil
}

func (w *dseSearch) layers(runs []searchRun, begin time.Time) map[string]float64 {
	l := map[string]float64{
		"bnn.zoo_build_s": w.zooBuild.Seconds(),
		"eval.fig78_ms":   ms(w.fig78),
	}
	if len(runs) == 0 {
		return l
	}
	var lower, self []float64
	var scores, probes, hits, computes, reuses, steps float64
	for _, r := range runs {
		lower = append(lower, ms(r.sp.lower))
		self = append(self, ms(r.sp.search-r.sp.evalNs))
		scores += float64(r.sp.scores)
		probes += float64(r.sp.probes)
		hits += float64(r.sp.hits)
		computes += float64(r.res.Counters.Computes)
		reuses += float64(r.res.Counters.PoolReuses)
		steps += float64(r.res.Steps)
	}
	n := float64(len(runs))
	l["compiler.lower_ms_p50"] = median(lower)
	l["compiler.search_self_ms_p50"] = median(self)
	l["sim.score_us_p50"] = 1e3 * median(durMs(between(w.probe.get(spanScore), begin, time.Now())))
	l["sim.score_calls"] = scores / n
	l["sim.cached_probes"] = probes / n
	l["sim.cached_hits"] = hits / n
	l["sim.eval_computes"] = computes / n
	if computes > 0 {
		l["sim.pool_reuse_rate"] = reuses / computes
	}
	l["compiler.steps"] = steps / n
	return l
}

func (w *dseSearch) finish(*outcome) error { return nil }
