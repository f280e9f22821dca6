// Package arch describes the EinsteinBarrier spatial architecture
// (paper Fig. 4): a hierarchy of Nodes (chips) connected by chip-to-chip
// links, Tiles on an on-chip network, ECores inside tiles (instruction
// memory, operand steer unit, scalar functional units, transmitter),
// and VCores — the VMM-capable crossbars (ePCM or oPCM) each ECore
// controls. The same hierarchy hosts all three CIM designs of the
// evaluation; they differ in VCore technology, mapping, and whether the
// MMM instruction is available.
package arch

import (
	"fmt"
	"math"

	"einsteinbarrier/internal/device"
)

// Design is a handle into the design registry (registry.go). The three
// constants below are the paper's evaluated CIM designs (§V-B), which
// occupy the first registry slots; further designs are mustRegister
// entries in registry.go, resolved by name with ParseDesign.
type Design int

const (
	// BaselineEPCM is the SotA CustBinaryMap accelerator on 2T2R ePCM
	// arrays (Hirtzlin et al.).
	BaselineEPCM Design = iota
	// TacitEPCM is TacitMap on electronic PCM 1T1R crossbars.
	TacitEPCM
	// EinsteinBarrier is TacitMap on oPCM VCores with WDM.
	EinsteinBarrier
)

// CIMDesigns is the canonical evaluated CIM design set of Fig. 7/8, in
// report order — the single source of truth for code that iterates
// over the paper's designs. Registry additions (see Designs) are not
// part of the figure set.
var CIMDesigns = []Design{BaselineEPCM, TacitEPCM, EinsteinBarrier}

// String implements fmt.Stringer: the registered canonical name, which
// ParseDesign inverts. Unregistered values print as Design(n).
func (d Design) String() string {
	if s, err := d.Spec(); err == nil {
		return s.Name
	}
	return fmt.Sprintf("Design(%d)", int(d))
}

// MarshalText makes JSON exports carry the design's name, not its
// registry index.
func (d Design) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// Tech returns the VCore technology of the design (ePCM for
// unregistered handles).
func (d Design) Tech() device.Technology {
	if s, err := d.Spec(); err == nil {
		return s.Tech
	}
	return device.EPCM
}

// Config is the architecture configuration shared by the designs.
type Config struct {
	// Nodes, TilesPerNode, ECoresPerTile, VCoresPerECore set the
	// hierarchy (Fig. 4 b–e).
	Nodes          int
	TilesPerNode   int
	ECoresPerTile  int
	VCoresPerECore int
	// CrossbarRows/Cols are the VCore array dimensions.
	CrossbarRows, CrossbarCols int
	// ColumnsPerADC is the readout sharing factor (ADC conversion
	// rounds per VMM).
	ColumnsPerADC int
	// WDMCapacity is K for oPCM VCores (1 on electronic designs).
	WDMCapacity int
	// InputBits is the bit depth of the high-precision first/last
	// layers' activations (bit-streamed through the crossbars).
	InputBits int
	// FPReplication is how many replicas of a high-precision first
	// conv layer the compiler may place to process positions in
	// parallel (bounded by spare VCores).
	FPReplication int
}

// DefaultConfig returns the evaluation architecture: 4 nodes × 16 tiles
// × 8 ECores × 8 VCores of 256×256, 8-column ADC sharing, K=16, 8-bit
// IO layers.
func DefaultConfig() Config {
	return Config{
		Nodes:          4,
		TilesPerNode:   16,
		ECoresPerTile:  8,
		VCoresPerECore: 8,
		CrossbarRows:   256,
		CrossbarCols:   256,
		ColumnsPerADC:  8,
		WDMCapacity:    16,
		InputBits:      8,
		FPReplication:  64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	pos := map[string]int{
		"Nodes": c.Nodes, "TilesPerNode": c.TilesPerNode,
		"ECoresPerTile": c.ECoresPerTile, "VCoresPerECore": c.VCoresPerECore,
		"CrossbarRows": c.CrossbarRows, "CrossbarCols": c.CrossbarCols,
		"ColumnsPerADC": c.ColumnsPerADC, "WDMCapacity": c.WDMCapacity,
		"InputBits": c.InputBits, "FPReplication": c.FPReplication,
	}
	for name, v := range pos {
		if v < 1 {
			return fmt.Errorf("arch: %s must be ≥ 1, got %d", name, v)
		}
	}
	if c.ColumnsPerADC > c.CrossbarCols {
		return fmt.Errorf("arch: ColumnsPerADC %d exceeds columns %d", c.ColumnsPerADC, c.CrossbarCols)
	}
	if c.CrossbarRows%2 != 0 {
		return fmt.Errorf("arch: crossbar rows %d must be even (TacitMap stores [w;¬w])", c.CrossbarRows)
	}
	return nil
}

// totalTiles returns the tile count across all nodes.
func (c Config) totalTiles() int { return c.Nodes * c.TilesPerNode }

// totalECores returns the ECore count.
func (c Config) totalECores() int { return c.totalTiles() * c.ECoresPerTile }

// TotalVCores returns the crossbar count.
func (c Config) TotalVCores() int { return c.totalECores() * c.VCoresPerECore }

// MeshWidth returns the side of the per-node tile mesh.
func (c Config) MeshWidth() int {
	return int(math.Ceil(math.Sqrt(float64(c.TilesPerNode))))
}

// CellsPerVCore returns the device count of one crossbar.
func (c Config) CellsPerVCore() int { return c.CrossbarRows * c.CrossbarCols }

// ADCRoundsPerVMM returns the serial conversion rounds per VMM.
func (c Config) ADCRoundsPerVMM() int { return c.ColumnsPerADC }

// EffectiveK returns the WDM capacity available to a design: 1 on
// electronic designs (no frequency dimension), the architecture's K on
// WDM designs, or the design's own capacity when its spec overrides it
// (wide-K variants).
func (c Config) EffectiveK(d Design) int {
	s, err := d.Spec()
	if err != nil || !s.WDM {
		return 1
	}
	if s.WDMCapacity > 0 {
		return s.WDMCapacity
	}
	return c.WDMCapacity
}
