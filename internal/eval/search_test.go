package eval

import (
	"reflect"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/sim"
)

// goldenSearchFP pins the searched placement per zoo network on
// EinsteinBarrier at the paper batch (B=256), default step count, seed
// 1. These are load-bearing: the search is specified to be a pure
// function of (model, config, design, seed, steps), so any drift here
// is a determinism break or an intentional algorithm change — update
// only in the latter case.
var goldenSearchFP = map[string]string{
	"CNN-S": "r0+4:0,0,4x4!|n0@64:0|n0@2:1|n0@7:2|n0@1:3|n0@1:4",
	"CNN-M": "r0+4:0,0,4x4!|n0@64:0|n0@5:1|n0@5:2|n0@9:3|n0@64:4|n0@2:5",
	"CNN-L": "r0+4:0,0,4x4!|n0@64:0|n0@9:1|n0@9:2|n0@18:3|n0@36:4|n0@72:5,6|n0@256:8,9,12,13|n0@32:10|n0@2:11",
	"MLP-S": "r0+4:0,0,4x4!|n0@98:0,1|n0@32:2|n0@16:3|n0@1:4",
	"MLP-M": "r0+4:0,0,4x4!|n0@196:6,7,10,11|n0@128:13,14|n0@64:4|n0@2:0",
	"MLP-L": "r0+4:0,0,4x4!|n2@294:0,1,2,4,5|n3@288:0,1,4,5,8|n1@288:4,5,6,8,9|n0@144:8,9,10|n0@2:0",
}

// TestSearchPlacementGolden: end-to-end determinism with the REAL
// engine objective — the searched layout for every zoo network is
// byte-pinned, and the evaluation cache pays ≥50% once layouts repeat
// (the acceptance criterion BenchmarkPlacerSearch reports).
func TestSearchPlacementGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("engine-in-the-loop search across the zoo")
	}
	cfg := arch.DefaultConfig()
	s, err := sim.New(cfg, energy.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	pe, err := s.PlacementEvaluator(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bnn.ZooNames {
		m, err := bnn.Arch(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := compiler.NewSearchPlacer(m, cfg, arch.EinsteinBarrier, pe, compiler.SearchOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: sp})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Placement.Fingerprint(); got != goldenSearchFP[name] {
			t.Errorf("%s searched placement drifted\n got: %s\nwant: %s", name, got, goldenSearchFP[name])
		}
	}
	// A second sweep against the warm cache is all hits by determinism —
	// the repeated-search pattern the benchmark relies on — which lifts
	// the overall rate past the pinned floor.
	c0 := pe.Counters()
	for _, name := range bnn.ZooNames {
		m, err := bnn.Arch(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := compiler.NewSearchPlacer(m, cfg, arch.EinsteinBarrier, pe, compiler.SearchOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: sp}); err != nil {
			t.Fatal(err)
		}
	}
	c1 := pe.Counters()
	if c1.Hits-c0.Hits != c1.Lookups-c0.Lookups {
		t.Fatalf("warm second sweep missed: %d lookups, %d hits", c1.Lookups-c0.Lookups, c1.Hits-c0.Hits)
	}
	if rate := pe.HitRate(); rate < 0.5 {
		t.Fatalf("cache hit rate %.2f below the 50%% floor", rate)
	}
}

// TestSearchBeatsOrMatchesAllDesigns: the acceptance table — on every
// paper design, for every zoo network, search ≥ the best heuristic at
// B=256, and MLP-L strictly beats MeshPlacer on EinsteinBarrier.
func TestSearchBeatsOrMatchesAllDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("full zoo × design sweep")
	}
	cfg := DefaultConfig()
	cfg.Search = SearchSpec{Seed: 1}
	strictEB := false
	for _, d := range arch.Designs() {
		rows, err := ComparePlacements(cfg, nil, nil, d, 256)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		wins := PlacementWins(rows)
		if len(wins) != len(bnn.ZooNames) {
			t.Fatalf("%v: %d win rows for %d networks", d, len(wins), len(bnn.ZooNames))
		}
		for _, w := range wins {
			if w.SearchPerSec < w.HeuristicPerSec {
				t.Errorf("%v/%s: search %.0f below best heuristic %s %.0f",
					d, w.Network, w.SearchPerSec, w.BestHeuristic, w.HeuristicPerSec)
			}
			if d == arch.EinsteinBarrier && w.Network == "MLP-L" &&
				w.BestHeuristic == "mesh" && w.SearchPerSec > w.HeuristicPerSec {
				strictEB = true
			}
		}
	}
	if !strictEB {
		t.Fatal("no strict win over mesh on EinsteinBarrier MLP-L")
	}
}

// TestComparePlacementsSearchWorkerInvariance: the comparison with the
// search placer in the mix is bit-identical at any worker count,
// annealing trace included.
func TestComparePlacementsSearchWorkerInvariance(t *testing.T) {
	base := DefaultConfig()
	base.Search = SearchSpec{Steps: 32, Seed: 5}
	networks := []string{"MLP-S", "CNN-S"}
	placers := []string{"mesh", "search"}
	var want []PlacementRow
	for i, workers := range []int{1, 4, 3} {
		cfg := base
		cfg.Workers = workers
		rows, err := ComparePlacements(cfg, networks, placers, arch.EinsteinBarrier, 32)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = rows
			for _, r := range rows {
				if r.Placer == "search" && r.Search == nil {
					t.Fatalf("%s: search row missing its trace", r.Network)
				}
			}
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("workers=%d: comparison drifted from serial", workers)
		}
	}
}

// TestSearchCoLocate: coordinate descent under the interference-aware
// set objective never decreases it (the shard warm start reproduces the
// incumbent), and the whole pass is deterministic.
func TestSearchCoLocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Search = SearchSpec{Steps: 24, Seed: 2}
	names := []string{"MLP-S", "CNN-S"}
	const batch = 32

	// Baseline: the shard-carved co-location the search starts from.
	baseCS, baseES, _, err := CoLocate(cfg, names, arch.EinsteinBarrier, "shard", batch)
	if err != nil {
		t.Fatal(err)
	}
	baseSR, err := baseES.RunSet(batch)
	if err != nil {
		t.Fatal(err)
	}
	baseline := baseSR.AggregatePerSec * baseSR.FairnessJain

	cs, es, trace, err := CoLocate(cfg, names, arch.EinsteinBarrier, "search", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(trace) != 2 {
		t.Fatalf("%d compiled, %d trace entries", len(cs), len(trace))
	}
	sr, err := es.RunSet(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := sr.AggregatePerSec * sr.FairnessJain
	if got < baseline {
		t.Fatalf("set objective decreased: %.1f below shard baseline %.1f", got, baseline)
	}
	for i, ms := range trace {
		if ms.Model != names[i] {
			t.Fatalf("trace[%d] = %s", i, ms.Model)
		}
		if ms.Stats.BestFrom == "" || len(ms.Stats.WarmStarts) == 0 {
			t.Fatalf("%s: empty search trace %+v", ms.Model, ms.Stats)
		}
		if cs[i].Placement.Placer != "search" {
			t.Fatalf("%s placed by %q, want search", ms.Model, cs[i].Placement.Placer)
		}
		// Every searched model stays inside its carved region — that is
		// what keeps the set tile-disjoint during the descent.
		if cs[i].Placement.Region != baseCS[i].Placement.Region {
			t.Fatalf("%s: region drifted from the carve", ms.Model)
		}
	}
	// Determinism: the same config reproduces the same layouts.
	cs2, _, _, err := CoLocate(cfg, names, arch.EinsteinBarrier, "search", batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs {
		if cs[i].Placement.Fingerprint() != cs2[i].Placement.Fingerprint() {
			t.Fatalf("%s: co-location search not deterministic", names[i])
		}
	}
}

func TestSearchCoLocateRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, _, _, err := CoLocate(cfg, nil, arch.EinsteinBarrier, "search", 8); err == nil {
		t.Fatal("no models must error")
	}
	if _, _, _, err := CoLocate(cfg, []string{"MLP-S"}, arch.EinsteinBarrier, "search", 0); err == nil {
		t.Fatal("batch 0 must error")
	}
	if _, _, _, err := CoLocate(cfg, []string{"nope"}, arch.EinsteinBarrier, "search", 8); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, _, _, err := CoLocate(cfg, []string{"MLP-S"}, arch.Design(99), "search", 8); err == nil {
		t.Fatal("unknown design must error")
	}
	if _, _, _, err := CoLocate(cfg, []string{"MLP-S"}, arch.EinsteinBarrier, "Search", 8); err == nil {
		t.Fatal("search must be named exactly, not matched loosely")
	}
}
