package sim

import (
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/core"
)

// Cross-validation: the simulator's event counters must equal the
// closed-form counts derived independently from the mapping plans
// (internal/core). A divergence means the compiler emitted wrong
// event fields or the simulator multiplied them wrongly — exactly the
// class of bug that silently corrupts Figs. 7–8.

func TestCrossValidateTacitCounters(t *testing.T) {
	cfg := arch.DefaultConfig()
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		m, err := bnn.Arch(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(compiled(t, name, arch.TacitEPCM))
		if err != nil {
			t.Fatal(err)
		}
		var wantVMMs, wantADC int64
		for _, lc := range m.Costs() {
			if lc.Kind != "binary" {
				continue
			}
			plan, err := core.PlanTacit(lc.Work.N, lc.Work.M, cfg.CrossbarRows, cfg.CrossbarCols)
			if err != nil {
				t.Fatal(err)
			}
			wantVMMs += int64(plan.Tiles()) * int64(lc.Work.Positions)
			wantADC += int64(plan.ADCConversionsPerInput()) * int64(lc.Work.Positions)
		}
		if r.Counters.VMMs != wantVMMs {
			t.Fatalf("%s: VMMs = %d, plans say %d", name, r.Counters.VMMs, wantVMMs)
		}
		// FP layers also convert; binary-layer conversions are a lower
		// bound and must be included exactly.
		if r.Counters.ADCConversions < wantADC {
			t.Fatalf("%s: ADC conversions %d below binary-layer bound %d",
				name, r.Counters.ADCConversions, wantADC)
		}
	}
}

func TestCrossValidateBaselineCounters(t *testing.T) {
	cfg := arch.DefaultConfig()
	s := newSim(t)
	for _, name := range bnn.ZooNames {
		m, err := bnn.Arch(name)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(compiled(t, name, arch.BaselineEPCM))
		if err != nil {
			t.Fatal(err)
		}
		var wantSteps int64
		for _, lc := range m.Costs() {
			if lc.Kind != "binary" {
				continue
			}
			plan, err := core.PlanCust(lc.Work.N, lc.Work.M, cfg.CrossbarRows, cfg.CrossbarCols/2)
			if err != nil {
				t.Fatal(err)
			}
			wantSteps += int64(plan.RowActivationsPerInput()) * int64(lc.Work.Positions)
		}
		if r.Counters.RowSteps != wantSteps {
			t.Fatalf("%s: row steps = %d, plans say %d", name, r.Counters.RowSteps, wantSteps)
		}
	}
}

func TestCrossValidateEBBatching(t *testing.T) {
	// EB's MMM count must be ceil(positions/K) per tile set.
	cfg := arch.DefaultConfig()
	s := newSim(t)
	m, err := bnn.Arch("CNN-M")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(compiled(t, "CNN-M", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	k := cfg.WDMCapacity
	for _, lc := range m.Costs() {
		if lc.Kind != "binary" {
			continue
		}
		plan, err := core.PlanTacit(lc.Work.N, lc.Work.M, cfg.CrossbarRows, cfg.CrossbarCols)
		if err != nil {
			t.Fatal(err)
		}
		want += int64(plan.Tiles()) * int64((lc.Work.Positions+k-1)/k)
	}
	if r.Counters.MMMs != want {
		t.Fatalf("MMMs = %d, plans say %d", r.Counters.MMMs, want)
	}
}
