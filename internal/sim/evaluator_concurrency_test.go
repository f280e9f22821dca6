package sim

import (
	"sync"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

// Concurrency contracts of the evaluators (run under -race in CI):
// parallel search workers hammering overlapping candidates must agree
// on every score, and singleflight must collapse concurrent misses so
// each unique fingerprint is computed exactly once no matter how many
// goroutines race on it.

// TestPlacementEvaluatorConcurrent: 8 goroutines × 4 rounds over 5
// candidates (two models, three placers) — every score identical to the
// serial answer, computes == unique fingerprints, and the bookkeeping
// identities hold.
func TestPlacementEvaluatorConcurrent(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	var cands []*compiler.Compiled
	for _, model := range []string{"CNN-S", "MLP-S"} {
		for _, p := range []compiler.Placer{compiler.GreedyPlacer{}, compiler.MeshPlacer{}, compiler.ShardPlacer{}} {
			m, err := bnn.Arch(model)
			if err != nil {
				t.Fatal(err)
			}
			c, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: p})
			if err != nil {
				t.Fatal(err)
			}
			cands = append(cands, c)
		}
	}
	unique := map[string]bool{}
	for _, c := range cands {
		unique[c.ModelName+"/"+c.Design.String()+"/"+c.Placement.Fingerprint()] = true
	}

	// Serial ground truth from an independent evaluator.
	ref, err := s.PlacementEvaluator(16)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(cands))
	for i, c := range cands {
		if want[i], err = ref.Score(c); err != nil {
			t.Fatal(err)
		}
	}

	pe, err := s.PlacementEvaluator(16)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 4
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for i := range cands {
					// Rotate per worker so goroutines collide on different
					// candidates at different times.
					j := (i + w) % len(cands)
					got, err := pe.Score(cands[j])
					if err != nil {
						errs <- err
						return
					}
					if got != want[j] {
						t.Errorf("worker %d: candidate %d scored %v, want %v", w, j, got, want[j])
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ec := pe.Counters()
	if ec.Computes != int64(len(unique)) {
		t.Fatalf("computes = %d, want one per unique fingerprint (%d)", ec.Computes, len(unique))
	}
	if wantL := int64(workers * rounds * len(cands)); ec.Lookups != wantL {
		t.Fatalf("lookups = %d, want %d", ec.Lookups, wantL)
	}
	if ec.Hits != ec.Lookups-ec.Computes {
		t.Fatalf("hits = %d, want lookups−computes = %d", ec.Hits, ec.Lookups-ec.Computes)
	}
	if ec.PoolBuilds+ec.PoolReuses != ec.Computes {
		t.Fatalf("pool builds %d + reuses %d != computes %d", ec.PoolBuilds, ec.PoolReuses, ec.Computes)
	}
}

// TestSetEvaluatorConcurrent: same contract for the co-location
// objective — candidates re-placed inside the slot's region, scored
// from many goroutines.
func TestSetEvaluatorConcurrent(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	cs := compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.MeshPlacer{}, cfg)
	reg := cs[1].Placement.Region
	cands := []*compiler.Compiled{cs[1]}
	for _, p := range []compiler.Placer{compiler.GreedyPlacer{}, compiler.MeshPlacer{}} {
		m, err := bnn.Arch("CNN-S")
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: p, Region: &reg})
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, c)
	}
	unique := map[string]bool{}
	for _, c := range cands {
		unique[c.Placement.Fingerprint()] = true
	}

	ref, err := s.SetEvaluator(cs, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(cands))
	for i, c := range cands {
		if want[i], err = ref.Score(c); err != nil {
			t.Fatal(err)
		}
	}

	se, err := s.SetEvaluator(cs, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 6, 3
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for i := range cands {
					j := (i + w) % len(cands)
					got, err := se.Score(cands[j])
					if err != nil {
						errs <- err
						return
					}
					if got != want[j] {
						t.Errorf("worker %d: candidate %d scored %v, want %v", w, j, got, want[j])
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ec := se.Counters()
	if ec.Computes != int64(len(unique)) {
		t.Fatalf("computes = %d, want one per unique fingerprint (%d)", ec.Computes, len(unique))
	}
	if ec.Hits != ec.Lookups-ec.Computes {
		t.Fatalf("hits = %d, want lookups−computes = %d", ec.Hits, ec.Lookups-ec.Computes)
	}
	if ec.PoolBuilds+ec.PoolReuses != ec.Computes {
		t.Fatalf("pool builds %d + reuses %d != computes %d", ec.PoolBuilds, ec.PoolReuses, ec.Computes)
	}
}

// TestPlacementEvaluatorPoolReuse: sequential misses of one structural
// shape share one pooled engine — one build, the rest re-priced.
func TestPlacementEvaluatorPoolReuse(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	pe, err := s.PlacementEvaluator(16)
	if err != nil {
		t.Fatal(err)
	}
	unique := map[string]bool{}
	for _, p := range []compiler.Placer{compiler.GreedyPlacer{}, compiler.MeshPlacer{}, compiler.ShardPlacer{}} {
		c := compileOne(t, "CNN-S", p, cfg)
		unique[c.Placement.Fingerprint()] = true
		if _, err := pe.Score(c); err != nil {
			t.Fatal(err)
		}
	}
	n := int64(len(unique))
	if n < 2 {
		t.Fatalf("test needs ≥ 2 distinct layouts, got %d", n)
	}
	ec := pe.Counters()
	if ec.Computes != n || ec.PoolBuilds != 1 || ec.PoolReuses != n-1 {
		t.Fatalf("computes=%d builds=%d reuses=%d, want %d/1/%d", ec.Computes, ec.PoolBuilds, ec.PoolReuses, n, n-1)
	}
	if got := ec.PoolReuseRate(); got != float64(n-1)/float64(n) {
		t.Fatalf("pool reuse rate %v", got)
	}
}

// TestPlacementEvaluatorCachedScore: the compile-skipping probe hits
// only what Result has priced, and a hit counts as lookup+hit while a
// miss counts nothing.
func TestPlacementEvaluatorCachedScore(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	pe, err := s.PlacementEvaluator(16)
	if err != nil {
		t.Fatal(err)
	}
	c := compileOne(t, "MLP-S", compiler.MeshPlacer{}, cfg)
	if _, ok := pe.CachedScore(c.ModelName, c.Design, c.Placement); ok {
		t.Fatal("probe before any pricing must miss")
	}
	if ec := pe.Counters(); ec.Lookups != 0 || ec.Hits != 0 {
		t.Fatalf("miss probe mutated counters: %+v", ec)
	}
	want, err := pe.Score(c)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := pe.CachedScore(c.ModelName, c.Design, c.Placement)
	if !ok || got != want {
		t.Fatalf("probe after pricing = (%v, %v), want (%v, true)", got, ok, want)
	}
	if ec := pe.Counters(); ec.Lookups != 2 || ec.Hits != 1 {
		t.Fatalf("counters after probe hit: %+v", ec)
	}
	// A different model's identical fingerprint must not collide.
	if _, ok := pe.CachedScore("CNN-S", c.Design, c.Placement); ok {
		t.Fatal("probe keyed on a different model must miss")
	}
}

// TestSetEvaluatorCachedScore: the slot-bound probe keys on the
// candidate fingerprint alone.
func TestSetEvaluatorCachedScore(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	cs := compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.ShardPlacer{}, cfg)
	se, err := s.SetEvaluator(cs, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := se.CachedScore(cs[1].ModelName, cs[1].Design, cs[1].Placement); ok {
		t.Fatal("probe before any pricing must miss")
	}
	want, err := se.Score(cs[1])
	if err != nil {
		t.Fatal(err)
	}
	got, ok := se.CachedScore("ignored", cs[1].Design, cs[1].Placement)
	if !ok || got != want {
		t.Fatalf("probe after pricing = (%v, %v), want (%v, true)", got, ok, want)
	}
}
