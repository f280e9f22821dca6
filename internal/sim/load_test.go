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
