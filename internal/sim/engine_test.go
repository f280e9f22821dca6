package sim

import (
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

// allDesigns is the paper set plus the registry-added designs — the
// engine must handle every registered design end to end.
var allDesigns = []arch.Design{
	arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier,
	arch.MLCEPCM, arch.EinsteinBarrierK64,
}

// TestEngineB1BitIdenticalToRun is the tentpole contract: the pipeline
// engine's single-inference numbers are the serial simulator's numbers,
// bit for bit, for every network and every design.
func TestEngineB1BitIdenticalToRun(t *testing.T) {
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		for _, d := range allDesigns {
			c := compiled(t, name, d)
			serial, err := s.Run(c)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			eng, err := s.NewEngine(c)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			br, err := eng.RunBatch(1)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			if br.LatencyNs != serial.LatencyNs {
				t.Fatalf("%s/%v: engine B=1 latency %v != serial %v", name, d, br.LatencyNs, serial.LatencyNs)
			}
			if br.EnergyPJPerInference != serial.EnergyPJ() {
				t.Fatalf("%s/%v: engine energy %v != serial %v", name, d, br.EnergyPJPerInference, serial.EnergyPJ())
			}
			er := eng.Result()
			if er.LatencyNs != serial.LatencyNs || er.EnergyPJ() != serial.EnergyPJ() ||
				er.Counters != serial.Counters {
				t.Fatalf("%s/%v: embedded result diverges from serial Run", name, d)
			}
		}
	}
}

// TestThroughputMonotoneUpToBound: streaming more samples never lowers
// throughput, and the achieved rate stays below the analytic
// steady-state ceiling of the busiest resource.
func TestThroughputMonotoneUpToBound(t *testing.T) {
	s := newSim(t)
	for _, name := range []string{"CNN-S", "CNN-M", "MLP-L"} {
		for _, d := range allDesigns {
			eng, err := s.NewEngine(compiled(t, name, d))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			prev := 0.0
			for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
				br, err := eng.RunBatch(b)
				if err != nil {
					t.Fatalf("%s/%v B=%d: %v", name, d, b, err)
				}
				if br.ThroughputPerSec < prev {
					t.Fatalf("%s/%v: throughput dropped at B=%d: %g < %g",
						name, d, b, br.ThroughputPerSec, prev)
				}
				if br.ThroughputPerSec > br.SteadyStatePerSec*(1+1e-9) {
					t.Fatalf("%s/%v B=%d: throughput %g exceeds ceiling %g (%s)",
						name, d, b, br.ThroughputPerSec, br.SteadyStatePerSec, br.BottleneckName)
				}
				prev = br.ThroughputPerSec
			}
			// A deep batch must approach the ceiling: the pipeline gain is
			// real, not an accounting artifact.
			br, err := eng.RunBatch(1024)
			if err != nil {
				t.Fatal(err)
			}
			if br.ThroughputPerSec < 0.8*br.SteadyStatePerSec {
				t.Fatalf("%s/%v: B=1024 throughput %g far below ceiling %g",
					name, d, br.ThroughputPerSec, br.SteadyStatePerSec)
			}
		}
	}
}

// TestPipelineGainOverSerial: for multi-layer networks, streaming beats
// back-to-back single-sample execution (B× the B=1 latency), bounded by
// the stage count.
func TestPipelineGainOverSerial(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "CNN-L", arch.TacitEPCM))
	if err != nil {
		t.Fatal(err)
	}
	const b = 256
	br, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	serialNs := float64(b) * br.LatencyNs
	gain := serialNs / br.MakespanNs
	if gain <= 1 {
		t.Fatalf("streaming gain %g must exceed 1", gain)
	}
	if gain > float64(len(eng.stages)) {
		t.Fatalf("streaming gain %g exceeds pipeline depth %d", gain, len(eng.stages))
	}
}

// TestEngineOccupancy: stage busy fractions are sane and the bottleneck
// resource is the busiest.
func TestEngineOccupancy(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "CNN-M", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	br, err := eng.RunBatch(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Stages) != len(eng.stages) {
		t.Fatalf("%d stage stats for %d stages", len(br.Stages), len(eng.stages))
	}
	for _, st := range br.Stages {
		if st.Busy < 0 || st.Busy > 1.0000001 {
			t.Fatalf("occupancy %g outside [0,1] for %s", st.Busy, st.Name)
		}
		if st.Tiles < 1 {
			t.Fatalf("stage %s owns no tiles", st.Name)
		}
	}
	if br.BottleneckName == "" || br.BottleneckNs <= 0 {
		t.Fatalf("bottleneck = %q %g", br.BottleneckName, br.BottleneckNs)
	}
	if br.LinkWaitNs < 0 {
		t.Fatalf("negative link wait %g", br.LinkWaitNs)
	}
}

// TestEngineRejectsUnplaced: the engine schedules from the placement
// IR, so a compilation without one is an error, as in both evaluators.
func TestEngineRejectsUnplaced(t *testing.T) {
	unplaced := *compiled(t, "MLP-S", arch.EinsteinBarrier)
	unplaced.Placement = nil
	if _, err := newSim(t).NewEngine(&unplaced); err == nil {
		t.Fatal("NewEngine accepted a compilation without a placement")
	}
}

// TestEngineDeterministic: same compilation, same batch — same numbers,
// including across engine reuse.
func TestEngineDeterministic(t *testing.T) {
	s := newSim(t)
	c := compiled(t, "CNN-S", arch.EinsteinBarrierK64)
	e1, err := s.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := e1.RunBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	a := a0.Clone()                           // results are engine-owned: retain across runs via Clone
	if _, err := e1.RunBatch(7); err != nil { // dirty the scratch
		t.Fatal(err)
	}
	b, err := e1.RunBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := e2.RunBatch(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*BatchResult{b, c2} {
		if a.MakespanNs != other.MakespanNs || a.ThroughputPerSec != other.ThroughputPerSec ||
			a.LinkWaitNs != other.LinkWaitNs {
			t.Fatalf("engine not deterministic: %+v vs %+v", a, other)
		}
	}
}

// TestRegistryDesignOrdering: the registry-added designs behave as
// their specs promise — wide-K is at least as fast as stock
// EinsteinBarrier everywhere, and MLC's denser FP layers cost it
// energy (pricier ADC), not correctness.
func TestRegistryDesignOrdering(t *testing.T) {
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		eb, err := s.Run(compiled(t, name, arch.EinsteinBarrier))
		if err != nil {
			t.Fatal(err)
		}
		wide, err := s.Run(compiled(t, name, arch.EinsteinBarrierK64))
		if err != nil {
			t.Fatal(err)
		}
		if wide.LatencyNs > eb.LatencyNs {
			t.Fatalf("%s: wide-K latency %g exceeds stock EB %g", name, wide.LatencyNs, eb.LatencyNs)
		}
		tacit, err := s.Run(compiled(t, name, arch.TacitEPCM))
		if err != nil {
			t.Fatal(err)
		}
		mlc, err := s.Run(compiled(t, name, arch.MLCEPCM))
		if err != nil {
			t.Fatal(err)
		}
		if mlc.LatencyNs <= 0 || mlc.EnergyPJ() <= 0 {
			t.Fatalf("%s: MLC design produced non-positive results", name)
		}
		if mlc.LatencyNs < tacit.LatencyNs*0.999 {
			// MLC only densifies storage; it must not beat Tacit's latency
			// (the ADC hook can only slow conversions down).
			t.Fatalf("%s: MLC latency %g below Tacit %g", name, mlc.LatencyNs, tacit.LatencyNs)
		}
	}
}

func TestRunBatchRejectsBadBatch(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "MLP-S", arch.TacitEPCM))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(0); err == nil {
		t.Fatal("batch 0 must error")
	}
	// Above MaxBatch every entry that sizes the calendar arena errors
	// instead of allocating it.
	over := MaxBatch + 1
	if _, err := eng.RunBatch(over); err == nil {
		t.Fatalf("RunBatch(%d) must error", over)
	}
	if _, err := eng.RunBatches([]int{1, over}); err == nil {
		t.Fatalf("RunBatches with %d must error", over)
	}
	es, err := s.NewEngineSet([]*compiler.Compiled{compiled(t, "MLP-S", arch.TacitEPCM)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.RunSet(over); err == nil {
		t.Fatalf("RunSet(%d) must error", over)
	}
	if _, err := s.PlacementEvaluator(over); err == nil {
		t.Fatalf("PlacementEvaluator(%d) must error", over)
	}
	if _, err := s.SetEvaluator([]*compiler.Compiled{compiled(t, "MLP-S", arch.TacitEPCM)}, 0, over); err == nil {
		t.Fatalf("SetEvaluator batch %d must error", over)
	}
	if _, err := eng.RunBatch(MaxBatch); err != nil {
		t.Fatalf("RunBatch(MaxBatch) must run: %v", err)
	}
}
