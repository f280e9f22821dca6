package sim

import (
	"strings"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

func compileOne(t *testing.T, name string, placer compiler.Placer, cfg arch.Config) *compiler.Compiled {
	t.Helper()
	m, err := bnn.NewModel(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: placer})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlacementEvaluatorValidation(t *testing.T) {
	s := newSim(t)
	if _, err := s.PlacementEvaluator(0); err == nil {
		t.Fatal("batch 0 must error")
	}
	pe, err := s.PlacementEvaluator(8)
	if err != nil {
		t.Fatal(err)
	}
	if pe.batch != 8 {
		t.Fatalf("batch = %d", pe.batch)
	}
	if pe.HitRate() != 0 {
		t.Fatal("hit rate before first lookup must be 0")
	}
	bad := &compiler.Compiled{ModelName: "X"}
	if _, err := pe.Score(bad); err == nil || !strings.Contains(err.Error(), "placement") {
		t.Fatalf("nil placement: %v", err)
	}
}

// TestPlacementEvaluatorMatchesEngine: the evaluator is the engine —
// Score must equal a direct NewEngine+RunBatch measurement, and the
// cached Result must be the same floats on a hit.
func TestPlacementEvaluatorMatchesEngine(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	const batch = 32
	pe, err := s.PlacementEvaluator(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, placer := range []compiler.Placer{compiler.GreedyPlacer{}, compiler.MeshPlacer{}} {
		c := compileOne(t, "CNN-S", placer, cfg)
		eng, err := s.NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.RunBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pe.Score(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want.ThroughputPerSec {
			t.Fatalf("%s: evaluator %v != engine %v", placer.Name(), got, want.ThroughputPerSec)
		}
	}
}

// TestPlacementEvaluatorCaches: same fingerprint → one engine run; a
// recompile of the same layout (even relabeled) is a hit, a different
// layout is a miss.
func TestPlacementEvaluatorCaches(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	pe, err := s.PlacementEvaluator(16)
	if err != nil {
		t.Fatal(err)
	}
	mesh := compileOne(t, "MLP-S", compiler.MeshPlacer{}, cfg)
	first, err := pe.Score(mesh)
	if err != nil {
		t.Fatal(err)
	}
	again := compileOne(t, "MLP-S", compiler.MeshPlacer{}, cfg)
	again.Placement.Placer = "relabeled" // fingerprint excludes the name
	second, err := pe.Score(again)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("cache hit returned different score: %v vs %v", first, second)
	}
	if c := pe.Counters(); c.Lookups != 2 || c.Hits != 1 {
		t.Fatalf("lookups=%d hits=%d after an identical recompile", c.Lookups, c.Hits)
	}
	if _, err := pe.Score(compileOne(t, "MLP-S", compiler.GreedyPlacer{}, cfg)); err != nil {
		t.Fatal(err)
	}
	if c := pe.Counters(); c.Lookups != 3 || c.Hits != 1 {
		t.Fatalf("lookups=%d hits=%d after a different layout", c.Lookups, c.Hits)
	}
	if got := pe.HitRate(); got != 1.0/3.0 {
		t.Fatalf("hit rate %v", got)
	}
	// The cached BatchResult is shared by pointer across hits.
	r1, err := pe.result(mesh)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pe.result(again)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("cache hits must share one BatchResult")
	}
}

// TestSetEvaluatorObjective: Score is AggregatePerSec × FairnessJain of
// the set with the candidate in its slot, and the incumbent's own
// placement reproduces the plain RunSet measurement.
func TestSetEvaluatorObjective(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	cs := compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.ShardPlacer{}, cfg)
	es, err := s.NewEngineSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 16
	sr, err := es.RunSet(batch)
	if err != nil {
		t.Fatal(err)
	}
	want := sr.AggregatePerSec * sr.FairnessJain
	for idx := range cs {
		se, err := s.SetEvaluator(cs, idx, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.Score(cs[idx])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("slot %d: evaluator %v != RunSet objective %v", idx, got, want)
		}
		// Second score of the same candidate is a memo hit.
		if _, err := se.Score(cs[idx]); err != nil {
			t.Fatal(err)
		}
		c := se.Counters()
		if c.Lookups != 2 || c.Hits != 1 {
			t.Fatalf("slot %d: lookups=%d hits=%d", idx, c.Lookups, c.Hits)
		}
		if c.HitRate() != 0.5 {
			t.Fatalf("slot %d: hit rate %v", idx, c.HitRate())
		}
	}
}

func TestSetEvaluatorValidation(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	cs := compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.ShardPlacer{}, cfg)
	if _, err := s.SetEvaluator(nil, 0, 8); err == nil {
		t.Fatal("empty set must error")
	}
	if _, err := s.SetEvaluator(cs, 2, 8); err == nil {
		t.Fatal("slot outside the set must error")
	}
	if _, err := s.SetEvaluator(cs, -1, 8); err == nil {
		t.Fatal("negative slot must error")
	}
	if _, err := s.SetEvaluator(cs, 0, 0); err == nil {
		t.Fatal("batch 0 must error")
	}
	se, err := s.SetEvaluator(cs, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Score(&compiler.Compiled{ModelName: "X"}); err == nil {
		t.Fatal("nil placement must error")
	}
	// A candidate that collides with the fixed neighbor's tiles is an
	// engine-set construction error, surfaced — not silently scored.
	clash := *cs[1]
	if _, err := se.Score(&clash); err == nil {
		t.Fatal("overlapping candidate must error through NewEngineSet")
	}
}
