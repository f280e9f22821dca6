package sim

import (
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/energy"
)

func newSim(t *testing.T) *Simulator {
	t.Helper()
	s, err := New(arch.DefaultConfig(), energy.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func compiled(t *testing.T, model string, d arch.Design) *compiler.Compiled {
	t.Helper()
	m, err := bnn.Arch(model)
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(m, arch.DefaultConfig(), d)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidates(t *testing.T) {
	bad := arch.DefaultConfig()
	bad.Nodes = 0
	if _, err := New(bad, energy.DefaultCostParams()); err == nil {
		t.Fatal("invalid arch should fail")
	}
	costs := energy.DefaultCostParams()
	costs.ADCEPJ = -1
	if _, err := New(arch.DefaultConfig(), costs); err == nil {
		t.Fatal("invalid costs should fail")
	}
}

func TestRunProducesPositiveResults(t *testing.T) {
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
			r, err := s.Run(compiled(t, name, d))
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			if r.LatencyNs <= 0 || r.EnergyPJ() <= 0 {
				t.Fatalf("%s/%v: non-positive result %g ns %g pJ", name, d, r.LatencyNs, r.EnergyPJ())
			}
			if r.Counters.Instructions == 0 {
				t.Fatalf("%s/%v: no instructions executed", name, d)
			}
		}
	}
}

// TestDesignOrdering is the paper's core latency result: for every
// network, Baseline > TacitMap > EinsteinBarrier in latency.
func TestDesignOrdering(t *testing.T) {
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		base, _ := s.Run(compiled(t, name, arch.BaselineEPCM))
		tacit, _ := s.Run(compiled(t, name, arch.TacitEPCM))
		eb, _ := s.Run(compiled(t, name, arch.EinsteinBarrier))
		if !(base.LatencyNs > tacit.LatencyNs && tacit.LatencyNs > eb.LatencyNs) {
			t.Fatalf("%s: latency ordering broken: base %g tacit %g eb %g",
				name, base.LatencyNs, tacit.LatencyNs, eb.LatencyNs)
		}
	}
}

// TestEnergyOrdering is the paper's Fig. 8 shape: TacitMap-ePCM costs
// MORE energy than the baseline (power-hungry ADCs), EinsteinBarrier
// costs less than TacitMap (K× fewer activations).
func TestEnergyOrdering(t *testing.T) {
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		base, _ := s.Run(compiled(t, name, arch.BaselineEPCM))
		tacit, _ := s.Run(compiled(t, name, arch.TacitEPCM))
		eb, _ := s.Run(compiled(t, name, arch.EinsteinBarrier))
		if tacit.EnergyPJ() <= base.EnergyPJ() {
			t.Fatalf("%s: TacitMap energy %g must exceed baseline %g",
				name, tacit.EnergyPJ(), base.EnergyPJ())
		}
		if eb.EnergyPJ() >= tacit.EnergyPJ() {
			t.Fatalf("%s: EB energy %g must be below TacitMap %g",
				name, eb.EnergyPJ(), tacit.EnergyPJ())
		}
	}
}

func TestCountersConsistent(t *testing.T) {
	s := newSim(t)
	base, _ := s.Run(compiled(t, "MLP-S", arch.BaselineEPCM))
	if base.Counters.RowSteps == 0 || base.Counters.VMMs != 0 || base.Counters.MMMs != 0 {
		t.Fatalf("baseline counters wrong: %+v", base.Counters)
	}
	tacit, _ := s.Run(compiled(t, "MLP-S", arch.TacitEPCM))
	if tacit.Counters.VMMs == 0 || tacit.Counters.RowSteps != 0 {
		t.Fatalf("tacit counters wrong: %+v", tacit.Counters)
	}
	eb, _ := s.Run(compiled(t, "MLP-S", arch.EinsteinBarrier))
	if eb.Counters.MMMs == 0 || eb.Counters.VMMs != 0 {
		t.Fatalf("eb counters wrong: %+v", eb.Counters)
	}
	// Same mapping, so Tacit's ADC conversions for binary layers are K×
	// the EB per-activation count in aggregate — but totals match since
	// every output is converted exactly once per position on both.
	if eb.Counters.ADCConversions != tacit.Counters.ADCConversions {
		t.Fatalf("conversion totals differ: eb %d tacit %d",
			eb.Counters.ADCConversions, tacit.Counters.ADCConversions)
	}
}

func TestOpticalStaticOnlyOnEB(t *testing.T) {
	s := newSim(t)
	tacit, _ := s.Run(compiled(t, "CNN-S", arch.TacitEPCM))
	if tacit.Energy.StaticPJ != 0 {
		t.Fatal("electronic design must have no optical static energy")
	}
	eb, _ := s.Run(compiled(t, "CNN-S", arch.EinsteinBarrier))
	if eb.Energy.StaticPJ <= 0 {
		t.Fatal("EinsteinBarrier must pay transmitter/TIA energy")
	}
}

func TestPerLayerSumsToTotal(t *testing.T) {
	s := newSim(t)
	r, _ := s.Run(compiled(t, "CNN-S", arch.TacitEPCM))
	var sum float64
	for _, lt := range r.PerLayer {
		sum += lt.LatencyNs
	}
	// Sections cover everything up to the final SYNC; HALT adds nothing.
	if diff := r.LatencyNs - sum; diff < 0 || diff > r.LatencyNs*0.01 {
		t.Fatalf("per-layer sum %g vs total %g", sum, r.LatencyNs)
	}
}

func TestWDMCapacitySweepMonotone(t *testing.T) {
	// More wavelengths → never slower (E6 sanity).
	m, err := bnn.Arch("CNN-M")
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, k := range []int{16, 8, 4, 2, 1} {
		cfg := arch.DefaultConfig()
		cfg.WDMCapacity = k
		s, err := New(cfg, energy.DefaultCostParams())
		if err != nil {
			t.Fatal(err)
		}
		c, err := compiler.Compile(m, cfg, arch.EinsteinBarrier)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.LatencyNs < prev {
			t.Fatalf("K=%d latency %g below K-larger latency %g", k, r.LatencyNs, prev)
		}
		prev = r.LatencyNs
	}
}

func TestRunModelOnDesigns(t *testing.T) {
	s := newSim(t)
	m, _ := bnn.Arch("MLP-S")
	results, err := RunModelOnDesigns(s, func(d arch.Design) (*compiler.Compiled, error) {
		return compiler.Compile(m, arch.DefaultConfig(), d)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for d, r := range results {
		if r.Design != d {
			t.Fatalf("result design mismatch: %v vs %v", r.Design, d)
		}
	}
}
