package compiler

import (
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/isa"
)

func mustModel(t *testing.T, name string) *bnn.Architecture {
	t.Helper()
	m, err := bnn.Arch(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileAllZooAllDesigns(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, name := range bnn.ZooNames {
		m := mustModel(t, name)
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
			c, err := Compile(m, cfg, d)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			if err := c.Program.Validate(); err != nil {
				t.Fatalf("%s/%v: invalid program: %v", name, d, err)
			}
			if c.VCoresUsed <= 0 || c.VCoresUsed > cfg.TotalVCores() {
				t.Fatalf("%s/%v: VCoresUsed = %d", name, d, c.VCoresUsed)
			}
			if len(c.Allocs) != len(m.Costs()) {
				t.Fatalf("%s/%v: %d allocs for %d layers", name, d, len(c.Allocs), len(m.Costs()))
			}
			if c.WeightWrites <= 0 {
				t.Fatalf("%s/%v: no weight writes", name, d)
			}
		}
	}
}

func TestBaselineUsesRowSteps(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "MLP-S")
	c, err := Compile(m, cfg, arch.BaselineEPCM)
	if err != nil {
		t.Fatal(err)
	}
	var rowSteps, mvms, mmms int
	for _, in := range c.Program {
		switch in.Op {
		case isa.OpRowStep:
			rowSteps++
		case isa.OpMVM:
			mvms++
		case isa.OpMMM:
			mmms++
		}
	}
	if rowSteps == 0 || mvms != 0 || mmms != 0 {
		t.Fatalf("baseline op mix wrong: rowsteps=%d mvms=%d mmms=%d", rowSteps, mvms, mmms)
	}
}

func TestTacitUsesMVMAndEBUsesMMM(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "CNN-S")
	tacit, err := Compile(m, cfg, arch.TacitEPCM)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Compile(m, cfg, arch.EinsteinBarrier)
	if err != nil {
		t.Fatal(err)
	}
	count := func(p isa.Program, op isa.Opcode) int {
		n := 0
		for _, in := range p {
			if in.Op == op {
				n++
			}
		}
		return n
	}
	if count(tacit.Program, isa.OpMVM) == 0 || count(tacit.Program, isa.OpMMM) != 0 {
		t.Fatal("TacitMap must use MVM, not MMM")
	}
	if count(eb.Program, isa.OpMMM) == 0 || count(eb.Program, isa.OpMVM) != 0 {
		t.Fatal("EinsteinBarrier must use MMM, not MVM")
	}
}

func TestWDMBatchingReducesRepeats(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "CNN-M")
	tacit, _ := Compile(m, cfg, arch.TacitEPCM)
	eb, _ := Compile(m, cfg, arch.EinsteinBarrier)
	repeats := func(p isa.Program, op isa.Opcode) int64 {
		var r int64
		for _, in := range p {
			if in.Op == op {
				r += in.Repeat
			}
		}
		return r
	}
	rv, rm := repeats(tacit.Program, isa.OpMVM), repeats(eb.Program, isa.OpMMM)
	if rm >= rv {
		t.Fatalf("MMM repeats %d not below MVM repeats %d", rm, rv)
	}
	// Batching gain is bounded by K.
	if rv > rm*int64(cfg.WDMCapacity)+int64(len(tacit.Program)) {
		t.Fatalf("batching exceeds K: %d vs %d×%d", rv, rm, cfg.WDMCapacity)
	}
}

func TestStepCountsMatchPlans(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "MLP-M")
	c, err := Compile(m, cfg, arch.BaselineEPCM)
	if err != nil {
		t.Fatal(err)
	}
	for _, lc := range m.Costs() {
		if lc.Kind != "binary" {
			continue
		}
		plan, err := core.PlanCust(lc.Work.N, lc.Work.M, cfg.CrossbarRows, cfg.CrossbarCols/2)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, a := range c.Allocs {
			if a.Name == lc.Name {
				found = true
				want := int64(plan.RowActivationsPerInput()) * int64(lc.Work.Positions)
				if a.Steps != want {
					t.Fatalf("%s: steps = %d, want %d", lc.Name, a.Steps, want)
				}
			}
		}
		if !found {
			t.Fatalf("no alloc for %s", lc.Name)
		}
	}
}

func TestShapeLayersEmitNothing(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "CNN-S")
	c, _ := Compile(m, cfg, arch.TacitEPCM)
	for _, a := range c.Allocs {
		if a.Kind == "shape" && (a.Steps != 0 || a.VCores != 0) {
			t.Fatalf("shape layer %s should be free, got %+v", a.Name, a)
		}
	}
}

func TestCompileRejectsBadInputs(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 0
	if _, err := Compile(mustModel(t, "MLP-S"), cfg, arch.TacitEPCM); err == nil {
		t.Fatal("invalid arch should fail")
	}
	bad := &bnn.Model{ModelName: "empty", InputShape: []int{1}, Classes: 1}
	if _, err := Compile(bad, arch.DefaultConfig(), arch.TacitEPCM); err == nil {
		t.Fatal("invalid model should fail")
	}
}

func TestCapacityExceeded(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.Nodes = 1
	cfg.TilesPerNode = 1
	cfg.ECoresPerTile = 1
	cfg.VCoresPerECore = 1 // a single 256×256 crossbar
	if _, err := Compile(mustModel(t, "CNN-L"), cfg, arch.TacitEPCM); err == nil {
		t.Fatal("CNN-L cannot fit one crossbar")
	}
}

func TestEBNeverExceedsTacitVCores(t *testing.T) {
	// Both use the TacitMap layout, so the binary-layer footprint is
	// identical; EB's WDM batches in frequency, not space.
	cfg := arch.DefaultConfig()
	for _, name := range bnn.ZooNames {
		m := mustModel(t, name)
		tacit, err := Compile(m, cfg, arch.TacitEPCM)
		if err != nil {
			t.Fatal(err)
		}
		eb, err := Compile(m, cfg, arch.EinsteinBarrier)
		if err != nil {
			t.Fatal(err)
		}
		if eb.VCoresUsed != tacit.VCoresUsed {
			t.Fatalf("%s: EB uses %d vcores, Tacit %d", name, eb.VCoresUsed, tacit.VCoresUsed)
		}
	}
}

// TestMLCDesignPacksFPWeights: the multi-level design stores two weight
// slices per cell, so its high-precision layers program half the cells
// (fewer weight writes) in at most the tile footprint of the binary-cell
// design — while binary layers keep the 2-cell [w;¬w] mapping untouched.
func TestMLCDesignPacksFPWeights(t *testing.T) {
	cfg := arch.DefaultConfig()
	m, err := bnn.Arch("CNN-S")
	if err != nil {
		t.Fatal(err)
	}
	tacit, err := Compile(m, cfg, arch.TacitEPCM)
	if err != nil {
		t.Fatal(err)
	}
	mlc, err := Compile(m, cfg, arch.MLCEPCM)
	if err != nil {
		t.Fatal(err)
	}
	if mlc.WeightWrites >= tacit.WeightWrites {
		t.Fatalf("MLC weight writes %d not below Tacit %d", mlc.WeightWrites, tacit.WeightWrites)
	}
	for i, ta := range tacit.Allocs {
		ma := mlc.Allocs[i]
		switch ta.Kind {
		case "binary":
			if ma.VCores != ta.VCores || ma.Steps != ta.Steps {
				t.Fatalf("binary layer %s changed under MLC: %+v vs %+v", ta.Name, ma, ta)
			}
		case "fp":
			if ma.VCores > ta.VCores {
				t.Fatalf("fp layer %s grew under MLC: %d > %d tiles", ta.Name, ma.VCores, ta.VCores)
			}
		}
	}
}
