package sim

import (
	"math"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

func compileSet(t *testing.T, names []string, placer compiler.Placer, cfg arch.Config) []*compiler.Compiled {
	t.Helper()
	var models []*bnn.Model
	for _, n := range names {
		m, err := bnn.NewModel(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	cs, err := compiler.CompileSet(models, cfg, arch.EinsteinBarrier, compiler.SetOptions{Placer: placer})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestEngineSetSingleModelMatchesRunBatch: a set of one is the engine —
// same code path, same floats.
func TestEngineSetSingleModelMatchesRunBatch(t *testing.T) {
	s := newSim(t)
	for _, placer := range []compiler.Placer{compiler.GreedyPlacer{}, compiler.MeshPlacer{}} {
		cs := compileSet(t, []string{"CNN-S"}, placer, arch.DefaultConfig())
		es, err := s.NewEngineSet(cs)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := s.NewEngine(cs[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 7, 64} {
			want, err := eng.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := es.RunSet(b)
			if err != nil {
				t.Fatal(err)
			}
			m := got.Models[0]
			if m.MakespanNs != want.MakespanNs || m.ThroughputPerSec != want.ThroughputPerSec {
				t.Fatalf("%s B=%d: set %v/%v != engine %v/%v", placer.Name(), b,
					m.MakespanNs, m.ThroughputPerSec, want.MakespanNs, want.ThroughputPerSec)
			}
			if m.LinkWaitNs != want.LinkWaitNs {
				t.Fatalf("%s B=%d: set wait %v != engine %v", placer.Name(), b, m.LinkWaitNs, want.LinkWaitNs)
			}
			if m.SlowdownX != 1 {
				t.Fatalf("single-model slowdown %v", m.SlowdownX)
			}
		}
	}
}

// TestEngineSetB1FillMatchesRun: the co-located fill latency of a lone
// model is the serial critical path — B=1 bit-identity carries through
// the set scheduler.
func TestEngineSetB1FillMatchesRun(t *testing.T) {
	s := newSim(t)
	cs := compileSet(t, []string{"MLP-S"}, compiler.GreedyPlacer{}, arch.DefaultConfig())
	serial, err := s.Run(cs[0])
	if err != nil {
		t.Fatal(err)
	}
	es, err := s.NewEngineSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := es.RunSet(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Models[0].FillLatencyNs != serial.LatencyNs {
		t.Fatalf("set fill %v != serial %v", r.Models[0].FillLatencyNs, serial.LatencyNs)
	}
}

// TestEngineSetCoLocationReportsInterference: two models on one fabric
// keep their isolated single-inference latency, run with bounded
// slowdown, and the interference accounting is self-consistent.
func TestEngineSetCoLocationReportsInterference(t *testing.T) {
	s := newSim(t)
	for _, placer := range []compiler.Placer{compiler.GreedyPlacer{}, compiler.MeshPlacer{}} {
		cs := compileSet(t, []string{"CNN-L", "MLP-M"}, placer, arch.DefaultConfig())
		es, err := s.NewEngineSet(cs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := es.RunSet(64)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Models) != 2 {
			t.Fatalf("%d model results", len(r.Models))
		}
		for _, m := range r.Models {
			if m.SlowdownX < 1-1e-9 {
				t.Fatalf("%s: co-location sped the model up (%vx)", m.ModelName, m.SlowdownX)
			}
			if m.LinkWaitNs < m.IsolatedLinkWaitNs-1e-9 {
				t.Fatalf("%s: co-located wait %v below isolated %v", m.ModelName, m.LinkWaitNs, m.IsolatedLinkWaitNs)
			}
			if m.ThroughputPerSec > m.IsolatedPerSec*(1+1e-9) {
				t.Fatalf("%s: co-located throughput above isolated", m.ModelName)
			}
		}
		if r.FairnessJain <= 0 || r.FairnessJain > 1+1e-9 {
			t.Fatalf("fairness %v outside (0,1]", r.FairnessJain)
		}
		if r.MakespanNs < math.Max(r.Models[0].MakespanNs, r.Models[1].MakespanNs) {
			t.Fatal("set makespan below a member's")
		}
	}
}

// TestEngineSetDenseCoLocationInterferenceVisible: four high-rate
// models packed onto one chip share its egress port and column-0 spine;
// the round-robin admission clusters their transfers, so the shared
// links measurably stall versus the isolated baselines.
func TestEngineSetDenseCoLocationInterferenceVisible(t *testing.T) {
	s := newSim(t)
	cs := compileSet(t, []string{"MLP-S", "MLP-S", "MLP-S", "MLP-S"}, compiler.GreedyPlacer{}, arch.DefaultConfig())
	// All four strips must land on chip 0 for the contention to be real.
	for _, c := range cs {
		if c.Placement.Region.Chip != 0 {
			t.Fatalf("%s landed on chip %d; carve should pack chip 0 first", c.ModelName, c.Placement.Region.Chip)
		}
	}
	es, err := s.NewEngineSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := es.RunSet(256)
	if err != nil {
		t.Fatal(err)
	}
	if r.InterferenceWaitNs <= 0 {
		t.Fatalf("dense co-location shows no interference (wait %v)", r.InterferenceWaitNs)
	}
}

// TestEngineSetRejectsOverlapAndMixedDesigns.
func TestEngineSetRejectsOverlapAndMixedDesigns(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	m, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two standalone compiles share the full fabric → overlapping tiles.
	c1, err := compiler.Compile(m, cfg, arch.EinsteinBarrier)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := compiler.Compile(m, cfg, arch.EinsteinBarrier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewEngineSet([]*compiler.Compiled{c1, c2}); err == nil {
		t.Fatal("overlapping placements must be rejected")
	}
	c3, err := compiler.Compile(m, cfg, arch.TacitEPCM)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewEngineSet([]*compiler.Compiled{c1, c3}); err == nil {
		t.Fatal("mixed designs must be rejected")
	}
	if _, err := s.NewEngineSet(nil); err == nil {
		t.Fatal("empty set must be rejected")
	}
	es, err := s.NewEngineSet([]*compiler.Compiled{c1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.RunSet(0); err == nil {
		t.Fatal("batch 0 must be rejected")
	}
}

// TestRunBatchesBitIdenticalToRunBatch pins the sweep satellite: one
// incremental pass over the largest batch produces the same results as
// re-running the schedule per size.
func TestRunBatchesBitIdenticalToRunBatch(t *testing.T) {
	s := newSim(t)
	for _, name := range []string{"CNN-S", "MLP-L"} {
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.EinsteinBarrier} {
			eng, err := s.NewEngine(compiled(t, name, d))
			if err != nil {
				t.Fatal(err)
			}
			bs := []int{16, 1, 4, 64, 4}
			swept, err := eng.RunBatches(bs)
			if err != nil {
				t.Fatal(err)
			}
			// The per-size RunBatch calls below recycle the engine's pooled
			// results, so the sweep's must be retained as clones.
			for i := range swept {
				swept[i] = swept[i].Clone()
			}
			for i, b := range bs {
				single, err := eng.RunBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				got, want := swept[i], single
				if got.Batch != want.Batch || got.MakespanNs != want.MakespanNs ||
					got.ThroughputPerSec != want.ThroughputPerSec || got.LinkWaitNs != want.LinkWaitNs ||
					got.SteadyStatePerSec != want.SteadyStatePerSec {
					t.Fatalf("%s/%v B=%d: sweep %+v != single %+v", name, d, b, got, want)
				}
				for si := range got.Stages {
					if got.Stages[si].Busy != want.Stages[si].Busy {
						t.Fatalf("%s/%v B=%d stage %d busy differs", name, d, b, si)
					}
				}
			}
		}
	}
	eng, err := s.NewEngine(compiled(t, "CNN-S", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatches(nil); err == nil {
		t.Fatal("empty sweep must error")
	}
	if _, err := eng.RunBatches([]int{0}); err == nil {
		t.Fatal("batch 0 must error")
	}
}

// TestMeshPlacerCutsLinkWaitOnCNNL pins the placer acceptance: on
// CNN-L the locality-aware layout both out-runs the greedy layout and
// stalls measurably less on the NoC.
func TestMeshPlacerCutsLinkWaitOnCNNL(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	m, err := bnn.NewModel("CNN-L", 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p compiler.Placer) *BatchResult {
		c, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: p})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := s.NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		br, err := eng.RunBatch(256)
		if err != nil {
			t.Fatal(err)
		}
		return br
	}
	greedy := run(compiler.GreedyPlacer{})
	mesh := run(compiler.MeshPlacer{})
	if greedy.LinkWaitNs <= 0 {
		t.Fatalf("greedy CNN-L shows no NoC stall (%v)", greedy.LinkWaitNs)
	}
	if mesh.LinkWaitNs >= greedy.LinkWaitNs {
		t.Fatalf("mesh wait %v not below greedy %v", mesh.LinkWaitNs, greedy.LinkWaitNs)
	}
	if mesh.ThroughputPerSec <= greedy.ThroughputPerSec {
		t.Fatalf("mesh throughput %v not above greedy %v", mesh.ThroughputPerSec, greedy.ThroughputPerSec)
	}
}

// TestShardedCompileRunsEndToEnd: a cross-chip sharded placement prices
// and schedules (gather SENDs land in the section costs, chip ports in
// the contention model).
func TestShardedCompileRunsEndToEnd(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	cfg.TilesPerNode = 4
	cfg.Nodes = 8
	m, err := bnn.NewModel("MLP-L", 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.CompileWith(m, cfg, arch.EinsteinBarrier, compiler.Options{Placer: compiler.ShardPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	// The sharded program must cost MORE serial latency than the greedy
	// one: inter-chip gathers are priced, not free.
	sim2, err := New(cfg, s.costs)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := compiler.Compile(m, cfg, arch.EinsteinBarrier)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := sim2.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := sim2.Run(gc)
	if err != nil {
		t.Fatal(err)
	}
	if shard.LatencyNs <= greedy.LatencyNs {
		t.Fatalf("sharded latency %v not above greedy %v (chip hops unpriced?)", shard.LatencyNs, greedy.LatencyNs)
	}
	eng, err := sim2.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	br, err := eng.RunBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	if br.ThroughputPerSec <= 0 || br.MakespanNs <= 0 {
		t.Fatalf("degenerate sharded batch result %+v", br)
	}
}
