package arch

import (
	"fmt"
	"strings"

	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/energy"
)

// Design registry. The paper evaluates a fixed set of three CIM designs,
// but the architecture layer itself is open: a design is a DesignSpec —
// device technology, mapping strategy, WDM capability and optional
// architecture/cost hooks — registered under a canonical name. The
// compiler, the simulator, the evaluation harness and both CLIs resolve
// designs through the registry, so adding an accelerator variant is one
// Register call, not an enum surgery across four packages.

// Mapping selects the weight-mapping strategy of a design (paper §III).
type Mapping int

const (
	// MappingCust is CustBinaryMap: 2T2R differential pairs, serial
	// row-step execution with PCSA sensing (the SotA baseline).
	MappingCust Mapping = iota
	// MappingTacit is TacitMap: [w;¬w] column pairs executed as one
	// analog VMM per input (or one MMM per K inputs on WDM designs).
	MappingTacit
)

// String implements fmt.Stringer.
func (m Mapping) String() string {
	switch m {
	case MappingCust:
		return "CustBinaryMap"
	case MappingTacit:
		return "TacitMap"
	default:
		return fmt.Sprintf("Mapping(%d)", int(m))
	}
}

// DesignSpec describes one accelerator design point.
type DesignSpec struct {
	// Name is the canonical, unique design name — also the string form
	// of the registered Design (see Design.String / ParseDesign).
	Name string
	// Aliases are additional accepted spellings (CLI shorthands).
	// Matching is case-insensitive for both names and aliases.
	Aliases []string
	// Tech is the VCore device technology.
	Tech device.Technology
	// Mapping is the weight-mapping strategy of the binary layers.
	Mapping Mapping
	// WDM marks designs whose ISA includes the MMM instruction
	// (wavelength-multiplexed batching; requires optical VCores).
	WDM bool
	// WDMCapacity, when > 0, overrides Config.WDMCapacity for this
	// design (wide-K variants). Ignored unless WDM is set.
	WDMCapacity int
	// MLC, when non-nil, runs the design's high-precision layers on
	// multi-level cells: each device stores MLC.Levels levels, so one
	// cell holds BitsPerCell weight-bit slices (device/mlc.go). Binary
	// layers keep the robust two-level [w;¬w] mapping regardless.
	MLC *device.MLCParams
	// TuneCosts, when non-nil, adapts the shared cost table for this
	// design (cost hooks — e.g. a higher-resolution readout for MLC).
	TuneCosts func(energy.CostParams) energy.CostParams
}

// Validate checks the spec before registration.
func (s DesignSpec) Validate() error {
	switch {
	case strings.TrimSpace(s.Name) == "":
		return fmt.Errorf("arch: design spec needs a name")
	case s.WDM && s.Tech != device.OPCM:
		return fmt.Errorf("arch: design %q: WDM batching requires oPCM VCores", s.Name)
	case s.WDMCapacity < 0:
		return fmt.Errorf("arch: design %q: negative WDM capacity", s.Name)
	case s.WDMCapacity > 0 && !s.WDM:
		return fmt.Errorf("arch: design %q: WDMCapacity set on a non-WDM design", s.Name)
	}
	if s.MLC != nil {
		if err := s.MLC.Validate(); err != nil {
			return fmt.Errorf("arch: design %q: %w", s.Name, err)
		}
	}
	return nil
}

// BitsPerCell is the number of weight-bit slices one device stores in
// the design's high-precision layers: 1 for binary cells, log2(Levels)
// for multi-level cells.
func (s DesignSpec) BitsPerCell() int {
	if s.MLC == nil {
		return 1
	}
	return s.MLC.BitsPerCell()
}

// EffectiveCosts applies the design's cost hook.
func (s DesignSpec) EffectiveCosts(c energy.CostParams) energy.CostParams {
	if s.TuneCosts != nil {
		return s.TuneCosts(c)
	}
	return c
}

// --- registry ------------------------------------------------------------

var (
	specs  []DesignSpec
	byName = map[string]Design{}
)

// register adds a design spec and returns its Design handle. The name
// and every alias must be new (case-insensitive).
func register(s DesignSpec) (Design, error) {
	if err := s.Validate(); err != nil {
		return -1, err
	}
	keys := append([]string{s.Name}, s.Aliases...)
	for _, k := range keys {
		if prev, ok := byName[strings.ToLower(k)]; ok {
			return -1, fmt.Errorf("arch: design name %q already registered to %v", k, prev)
		}
	}
	d := Design(len(specs))
	specs = append(specs, s)
	for _, k := range keys {
		byName[strings.ToLower(k)] = d
	}
	return d, nil
}

// mustRegister is register that panics on error — for package-level
// design declarations.
func mustRegister(s DesignSpec) Design {
	d, err := register(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Spec returns the registered spec of a design.
func (d Design) Spec() (DesignSpec, error) {
	if int(d) < 0 || int(d) >= len(specs) {
		return DesignSpec{}, fmt.Errorf("arch: unknown design Design(%d)", int(d))
	}
	return specs[d], nil
}

// ParseDesign resolves a design name or alias (case-insensitive). It
// returns an error — never a default — on unknown names; the error
// lists the registered names.
func ParseDesign(name string) (Design, error) {
	if d, ok := byName[strings.ToLower(strings.TrimSpace(name))]; ok {
		return d, nil
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return -1, fmt.Errorf("arch: unknown design %q (registered: %s)", name, strings.Join(names, ", "))
}

// Designs returns every registered design in registration order.
func Designs() []Design {
	out := make([]Design, len(specs))
	for i := range specs {
		out[i] = Design(i)
	}
	return out
}

// --- built-in designs ----------------------------------------------------

// mlc4 is the four-level population backing MLCEPCM, at the default
// binary-range spread (DefaultMLCParams keeps its analytic decode error
// well below the 1e-4 robustness budget — see RobustLevelLimit).
// Declared before the design block so registration order is the
// declaration order below.
var mlc4 = device.DefaultMLCParams(4)

// The paper's three CIM designs (§V-B) occupy the first three registry
// slots so the Design constants in arch.go stay valid handles.
var (
	_ = mustRegisterAt(BaselineEPCM, DesignSpec{
		Name:    "Baseline-ePCM",
		Aliases: []string{"baseline", "cust"},
		Tech:    device.EPCM,
		Mapping: MappingCust,
	})
	_ = mustRegisterAt(TacitEPCM, DesignSpec{
		Name:    "TacitMap-ePCM",
		Aliases: []string{"tacit"},
		Tech:    device.EPCM,
		Mapping: MappingTacit,
	})
	_ = mustRegisterAt(EinsteinBarrier, DesignSpec{
		Name:    "EinsteinBarrier",
		Aliases: []string{"eb"},
		Tech:    device.OPCM,
		Mapping: MappingTacit,
		WDM:     true,
	})

	// MLCEPCM is TacitMap on four-level ePCM cells: high-precision
	// layers pack two weight-bit slices per device (half the FP tiles
	// and weight writes), paid for with a finer readout — the MLC
	// decode-window analysis in device/mlc.go prices the level count,
	// and the cost hook charges a higher-resolution ADC (2× energy,
	// 1.5× conversion latency). Binary layers keep the two-level
	// mapping, preserving the paper's §II-C robustness argument.
	MLCEPCM = mustRegister(DesignSpec{
		Name:    "MLC-ePCM",
		Aliases: []string{"mlc"},
		Tech:    device.EPCM,
		Mapping: MappingTacit,
		MLC:     &mlc4,
		TuneCosts: func(c energy.CostParams) energy.CostParams {
			return c.WithADCResolutionScale(1.5, 2)
		},
	})

	// EinsteinBarrierK64 is the wide-K variant: a 64-wavelength comb
	// (4× the evaluation default) batching 64 positions per MMM. The
	// transmitter power of Eq. (3) grows with K through EffectiveK, so
	// the latency gain on convolutional layers is bought with optical
	// static energy.
	EinsteinBarrierK64 = mustRegister(DesignSpec{
		Name:        "EinsteinBarrier-K64",
		Aliases:     []string{"eb64", "wide-k"},
		Tech:        device.OPCM,
		Mapping:     MappingTacit,
		WDM:         true,
		WDMCapacity: 64,
	})
)

// mustRegisterAt registers a built-in spec and asserts it lands on its
// reserved Design constant.
func mustRegisterAt(want Design, s DesignSpec) Design {
	d := mustRegister(s)
	if d != want {
		panic(fmt.Sprintf("arch: built-in design %q registered as %d, want %d", s.Name, d, want))
	}
	return d
}
