package arch

import (
	"strings"
	"testing"

	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/energy"
)

func TestBuiltinsOccupyReservedSlots(t *testing.T) {
	for d, want := range map[Design]string{
		BaselineEPCM:       "Baseline-ePCM",
		TacitEPCM:          "TacitMap-ePCM",
		EinsteinBarrier:    "EinsteinBarrier",
		MLCEPCM:            "MLC-ePCM",
		EinsteinBarrierK64: "EinsteinBarrier-K64",
	} {
		if d.String() != want {
			t.Errorf("design %d: name %q, want %q", int(d), d.String(), want)
		}
	}
	if len(Designs()) < 5 {
		t.Fatalf("registry has %d designs, want ≥ 5", len(Designs()))
	}
}

// TestDesignStringParseRoundTrip: registry names are the canonical
// string form and ParseDesign inverts String for every registered
// design.
func TestDesignStringParseRoundTrip(t *testing.T) {
	for _, d := range Designs() {
		back, err := ParseDesign(d.String())
		if err != nil {
			t.Fatalf("ParseDesign(%q): %v", d.String(), err)
		}
		if back != d {
			t.Fatalf("round trip %q: got %v, want %v", d.String(), back, d)
		}
	}
}

func TestParseDesignAliasesAndCase(t *testing.T) {
	cases := map[string]Design{
		"baseline": BaselineEPCM,
		"cust":     BaselineEPCM,
		"tacit":    TacitEPCM,
		"eb":       EinsteinBarrier,
		"EB":       EinsteinBarrier,
		"  eb64 ":  EinsteinBarrierK64,
		"wide-k":   EinsteinBarrierK64,
		"mlc":      MLCEPCM,
		"MLC-EPCM": MLCEPCM,
	}
	for in, want := range cases {
		got, err := ParseDesign(in)
		if err != nil {
			t.Fatalf("ParseDesign(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseDesign(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseDesignUnknownErrors(t *testing.T) {
	_, err := ParseDesign("warp-drive")
	if err == nil {
		t.Fatal("unknown design must error, not default")
	}
	if !strings.Contains(err.Error(), "EinsteinBarrier") {
		t.Fatalf("error should list registered names, got: %v", err)
	}
	// An unregistered handle still prints (no inverse — by design).
	if Design(97).String() != "Design(97)" {
		t.Fatalf("unregistered handle prints %q", Design(97).String())
	}
	if _, err := Design(97).Spec(); err == nil {
		t.Fatal("unregistered handle must have no spec")
	}
}

func TestRegisterRejects(t *testing.T) {
	bad := []DesignSpec{
		{},                                    // no name
		{Name: "Baseline-ePCM"},               // duplicate canonical name
		{Name: "x1", Aliases: []string{"EB"}}, // duplicate alias (case-insensitive)
		{Name: "x2", WDM: true, Tech: device.EPCM},      // WDM needs oPCM
		{Name: "x3", WDMCapacity: 8, Tech: device.EPCM}, // capacity without WDM
		{Name: "x4", MLC: &device.MLCParams{Levels: 1}}, // invalid MLC params
	}
	before := len(Designs())
	for i, s := range bad {
		if _, err := register(s); err == nil {
			t.Errorf("case %d (%q): expected registration error", i, s.Name)
		}
	}
	if len(Designs()) != before {
		t.Fatal("failed registrations must not grow the registry")
	}
}

func TestRegisterExtends(t *testing.T) {
	d, err := register(DesignSpec{
		Name:    "Test-Tacit-oPCM",
		Aliases: []string{"test-tacit-opcm-alias"},
		Tech:    device.OPCM,
		Mapping: MappingTacit,
		WDM:     true,
		TuneCosts: func(c energy.CostParams) energy.CostParams {
			c.ADCOPJ *= 2
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "Test-Tacit-oPCM" || d.Tech() != device.OPCM {
		t.Fatalf("registered design misbehaves: %v / %v", d, d.Tech())
	}
	if got, _ := ParseDesign("test-tacit-opcm-alias"); got != d {
		t.Fatal("alias does not resolve")
	}
	spec, err := d.Spec()
	if err != nil {
		t.Fatal(err)
	}
	base := energy.DefaultCostParams()
	if spec.EffectiveCosts(base).ADCOPJ != 2*base.ADCOPJ {
		t.Fatal("cost hook not applied")
	}
}

func TestEffectiveKPerSpec(t *testing.T) {
	c := DefaultConfig()
	if got := c.EffectiveK(EinsteinBarrierK64); got != 64 {
		t.Fatalf("wide-K design must see its own capacity, got %d", got)
	}
	if got := c.EffectiveK(MLCEPCM); got != 1 {
		t.Fatalf("electronic MLC design has no WDM dimension, got %d", got)
	}
	if got := c.EffectiveK(EinsteinBarrier); got != c.WDMCapacity {
		t.Fatalf("EinsteinBarrier must see the architecture K, got %d", got)
	}
}

func TestMLCSpecDensity(t *testing.T) {
	spec, err := MLCEPCM.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.BitsPerCell() != 2 {
		t.Fatalf("4-level cells store 2 bits, got %d", spec.BitsPerCell())
	}
	if spec.MLC.AnalyticErrorRate() > 1e-4 {
		t.Fatalf("registered MLC corner exceeds the robustness budget: %g", spec.MLC.AnalyticErrorRate())
	}
	// The registered level count must be within the robust limit the
	// device model derives — the wiring the design exists to exercise.
	if limit := spec.MLC.RobustLevelLimit(1e-4); limit < spec.MLC.Levels {
		t.Fatalf("4-level operation outside robust limit %d", limit)
	}
}
