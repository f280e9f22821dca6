package sim

import (
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

func TestWeightLoadCostBasics(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
		c := compiled(t, "MLP-S", d)
		lc, err := WeightLoadCost(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if lc.LatencyNs <= 0 || lc.EnergyPJ <= 0 || lc.Writes != c.WeightWrites {
			t.Fatalf("%v: degenerate load cost %+v", d, lc)
		}
	}
}

func TestLoadScalesWithModel(t *testing.T) {
	cfg := arch.DefaultConfig()
	small := compiled(t, "MLP-S", arch.TacitEPCM)
	large := compiled(t, "MLP-L", arch.TacitEPCM)
	ls, err := WeightLoadCost(small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := WeightLoadCost(large, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ll.EnergyPJ <= ls.EnergyPJ {
		t.Fatal("bigger model must cost more programming energy")
	}
}

func TestAmortizedOverheadShrinks(t *testing.T) {
	cfg := arch.DefaultConfig()
	s := newSim(t)
	c := compiled(t, "CNN-S", arch.EinsteinBarrier)
	r, err := s.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := WeightLoadCost(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := lc.AmortizedOverhead(r.LatencyNs, 1)
	many := lc.AmortizedOverhead(r.LatencyNs, 10000)
	if one <= many {
		t.Fatal("amortization must shrink with batch size")
	}
	if many > 0.05 {
		t.Fatalf("resident-weight overhead %.4f should be negligible at 10k inferences", many)
	}
	if lc.AmortizedOverhead(0, 10) != 0 || lc.AmortizedOverhead(100, 0) != 0 {
		t.Fatal("degenerate inputs must yield 0")
	}
}

func TestWeightLoadCostErrors(t *testing.T) {
	cfg := arch.DefaultConfig()
	if _, err := WeightLoadCost(&compiler.Compiled{}, cfg); err == nil {
		t.Fatal("expected error for empty compilation")
	}
	bad := cfg
	bad.Nodes = 0
	m, _ := bnn.Arch("MLP-S")
	c, _ := compiler.Compile(m, cfg, arch.TacitEPCM)
	if _, err := WeightLoadCost(c, bad); err == nil {
		t.Fatal("expected config error")
	}
}
