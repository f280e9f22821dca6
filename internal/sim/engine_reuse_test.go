package sim

import (
	"strings"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

// Reuse contracts of the fast engine: zero-alloc steady-state RunBatch
// (the warmed calendars must survive resets — the old vcClock.reset
// cleared its maps and rebuilt every resClock per run), Reprice
// bit-identity with a fresh NewEngine, EngineSet.Swap bit-identity with
// a fresh NewEngineSet, and the engine-owned result pool's Clone
// escape hatch.

// TestRunBatchZeroAlloc pins the tentpole: after the first (warming)
// run, RunBatch performs zero allocations per run — the calendars, the
// result pool and the scratch are all reused, so the second run cannot
// regress back to rebuilding them.
func TestRunBatchZeroAlloc(t *testing.T) {
	s := newSim(t)
	for _, tc := range []struct {
		model string
		b     int
	}{
		{"CNN-L", 256},
		{"CNN-S", 16},
		{"MLP-L", 64},
	} {
		eng, err := s.NewEngine(compiled(t, tc.model, arch.EinsteinBarrier))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunBatch(tc.b); err != nil { // warm calendars + pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := eng.RunBatch(tc.b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s B=%d: steady-state RunBatch allocates %v/run, want 0", tc.model, tc.b, allocs)
		}
	}
}

// TestRunBatchesSweepNoAllocAfterWarm: a warmed engine sweeping the
// same sizes again allocates only the caller-owned result slice.
func TestRunBatchesSweepNoAllocAfterWarm(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "CNN-S", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	bs := []int{1, 4, 16, 64}
	out := make([]*BatchResult, len(bs))
	if err := eng.runBatches(bs, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := eng.runBatches(bs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm sweep allocates %v/run, want 0", allocs)
	}
}

// batchResultsEqual compares every field including the per-stage
// occupancy (bit equality — both sides must run the identical schedule).
func batchResultsEqual(a, b *BatchResult) bool {
	if a.ModelName != b.ModelName || a.Design != b.Design || a.Batch != b.Batch ||
		a.LatencyNs != b.LatencyNs || a.MakespanNs != b.MakespanNs ||
		a.ThroughputPerSec != b.ThroughputPerSec || a.SteadyStatePerSec != b.SteadyStatePerSec ||
		a.BottleneckName != b.BottleneckName || a.BottleneckNs != b.BottleneckNs ||
		a.LinkWaitNs != b.LinkWaitNs || a.EnergyPJPerInference != b.EnergyPJPerInference ||
		len(a.Stages) != len(b.Stages) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i] != b.Stages[i] {
			return false
		}
	}
	return true
}

// TestRepriceMatchesNewEngine: an engine re-targeted at a new
// compilation behaves bit-identically to a fresh engine on it — across
// placements of one model and across entirely different models (stage
// counts, routes and calendars all change shape).
func TestRepriceMatchesNewEngine(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	greedy := compiled(t, "CNN-L", arch.EinsteinBarrier)
	mesh := recompiled(t, "CNN-L", arch.EinsteinBarrier, compiler.MeshPlacer{}, cfg)
	other := compiled(t, "MLP-S", arch.MLCEPCM)

	eng, err := s.NewEngine(greedy)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(64); err != nil { // dirty every piece of scratch
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *compiler.Compiled
	}{
		{"same model, new placement", mesh},
		{"different model and design", other},
		{"back to the original", greedy},
	} {
		if err := eng.reprice(tc.c); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fresh, err := s.NewEngine(tc.c)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 7, 64} {
			got, err := eng.RunBatch(b)
			if err != nil {
				t.Fatalf("%s B=%d: %v", tc.name, b, err)
			}
			want, err := fresh.RunBatch(b)
			if err != nil {
				t.Fatalf("%s B=%d: %v", tc.name, b, err)
			}
			if !batchResultsEqual(got, want) {
				t.Fatalf("%s B=%d: repriced %+v != fresh %+v", tc.name, b, got, want)
			}
		}
	}
}

// recompiled compiles a model with an explicit placer.
func recompiled(t *testing.T, model string, d arch.Design, p compiler.Placer, cfg arch.Config) *compiler.Compiled {
	t.Helper()
	m, err := bnn.NewModel(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := compiler.CompileWith(m, cfg, d, compiler.Options{Placer: p})
	if err != nil {
		t.Fatal(err)
	}
	return cc
}

// TestBatchResultClone: a clone is deep — mutating the original's
// stages does not leak into it (and vice versa).
func TestBatchResultClone(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "CNN-S", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	br, err := eng.RunBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	cp := br.Clone()
	if !batchResultsEqual(br, cp) {
		t.Fatalf("clone differs: %+v vs %+v", br, cp)
	}
	if len(br.Stages) > 0 {
		br.Stages[0].Busy = -1
		if cp.Stages[0].Busy == -1 {
			t.Fatal("clone shares the Stages backing array")
		}
	}
	// The engine-owned original is recycled by the next run; the clone
	// must survive it.
	want := *cp
	if _, err := eng.RunBatch(32); err != nil {
		t.Fatal(err)
	}
	if cp.Batch != want.Batch || cp.MakespanNs != want.MakespanNs {
		t.Fatal("clone mutated by a later engine run")
	}
}

// TestEngineSetSwapMatchesFresh: swapping a candidate into a pooled set
// prices bit-identically to building the set from scratch with the
// candidate in place — the SetEvaluator fast path.
func TestEngineSetSwapMatchesFresh(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	base := compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.MeshPlacer{}, cfg)
	// A real swap candidate is re-placed inside its slot's region (the
	// co-location searcher compiles with Region pinned) — here the same
	// model under a different placer, so the schedule genuinely changes.
	m, err := bnn.NewModel("CNN-S", 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := base[1].Placement.Region
	cand, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier,
		compiler.Options{Placer: compiler.GreedyPlacer{}, Region: &reg})
	if err != nil {
		t.Fatal(err)
	}

	es, err := s.NewEngineSet(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.RunSet(16); err != nil { // warm the iso cache + calendars
		t.Fatal(err)
	}
	if err := es.swap(1, cand); err != nil {
		t.Fatal(err)
	}
	got, err := es.RunSet(16)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.NewEngineSet([]*compiler.Compiled{base[0], cand})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunSet(16)
	if err != nil {
		t.Fatal(err)
	}
	if got.MakespanNs != want.MakespanNs || got.AggregatePerSec != want.AggregatePerSec ||
		got.FairnessJain != want.FairnessJain || got.InterferenceWaitNs != want.InterferenceWaitNs {
		t.Fatalf("swapped set diverged: %+v vs %+v", got, want)
	}
	for i := range got.Models {
		g, w := got.Models[i], want.Models[i]
		if g.MakespanNs != w.MakespanNs || g.ThroughputPerSec != w.ThroughputPerSec ||
			g.IsolatedPerSec != w.IsolatedPerSec || g.LinkWaitNs != w.LinkWaitNs ||
			g.IsolatedLinkWaitNs != w.IsolatedLinkWaitNs {
			t.Fatalf("model %d diverged after swap: %+v vs %+v", i, g, w)
		}
	}
	// Repeat runs of the swapped set (iso baselines now cached) stay
	// bit-identical.
	again, err := es.RunSet(16)
	if err != nil {
		t.Fatal(err)
	}
	if again.MakespanNs != got.MakespanNs || again.AggregatePerSec != got.AggregatePerSec {
		t.Fatal("repeat RunSet with cached iso baselines diverged")
	}
	// And a batch-size change invalidates the iso cache correctly.
	got8, err := es.RunSet(8)
	if err != nil {
		t.Fatal(err)
	}
	want8, err := fresh.RunSet(8)
	if err != nil {
		t.Fatal(err)
	}
	if got8.AggregatePerSec != want8.AggregatePerSec || got8.FairnessJain != want8.FairnessJain {
		t.Fatalf("B=8 after B=16 diverged: %+v vs %+v", got8, want8)
	}
}

// TestEngineSetSwapValidation: bad swaps error and name the problem.
func TestEngineSetSwapValidation(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	base := compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.MeshPlacer{}, cfg)
	es, err := s.NewEngineSet(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.swap(5, base[0]); err == nil {
		t.Fatal("out-of-range slot must error")
	}
	wrong := compiled(t, "CNN-S", arch.MLCEPCM)
	if err := es.swap(1, wrong); err == nil || !strings.Contains(err.Error(), "mixes designs") {
		t.Fatalf("mixed-design swap error = %v", err)
	}
	// A candidate overlapping the neighbour's tiles must be rejected by
	// the disjointness check.
	es2, err := s.NewEngineSet(compileSet(t, []string{"MLP-S", "CNN-S"}, compiler.MeshPlacer{}, cfg))
	if err != nil {
		t.Fatal(err)
	}
	solo := compiled(t, "CNN-S", arch.EinsteinBarrier) // full-fabric layout overlaps slot 0
	if err := es2.swap(1, solo); err == nil || !strings.Contains(err.Error(), "both occupy tile") {
		t.Fatalf("overlapping swap error = %v", err)
	}
}
