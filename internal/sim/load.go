package sim

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/device"
)

// Weight-loading cost. Inference results (Figs. 7–8) assume weights are
// resident — the CIM premise. This prices the one-time programming
// pass: every cell write pays the device's SET/RESET latency and
// energy; tiles program in parallel, rows within a tile sequentially
// (one word line driven at a time), which is the standard array-
// programming discipline.

// LoadCost is the one-time weight-programming bill.
type LoadCost struct {
	// LatencyNs assumes per-tile row-sequential, cross-tile parallel
	// programming.
	LatencyNs float64
	// EnergyPJ is the total programming energy.
	EnergyPJ float64
	// Writes echoes the device-write count.
	Writes int64
}

// WeightLoadCost prices loading a compiled model's weights. Device
// write costs come from the technology defaults (an average of SET and
// RESET, since synthesized weights are balanced).
func WeightLoadCost(c *compiler.Compiled, cfg arch.Config) (LoadCost, error) {
	if err := cfg.Validate(); err != nil {
		return LoadCost{}, err
	}
	if c.WeightWrites <= 0 {
		return LoadCost{}, fmt.Errorf("sim: compilation has no weight writes")
	}
	var perWriteNs, perWritePJ float64
	if c.Design.Tech() == device.OPCM {
		p := device.DefaultOPCMParams()
		perWriteNs = p.WriteLatencyNs
		perWritePJ = p.WriteEnergyPJ
	} else {
		p := device.DefaultEPCMParams()
		setNs, setPJ := p.WriteCost(true)
		rstNs, rstPJ := p.WriteCost(false)
		perWriteNs = (setNs + rstNs) / 2
		perWritePJ = (setPJ + rstPJ) / 2
	}
	tiles := c.VCoresUsed
	if tiles < 1 {
		tiles = 1
	}
	// Rows program one at a time within a tile; a row's cells program
	// together. Writes per tile ≈ total/tiles; rows per tile =
	// writesPerTile / cols.
	writesPerTile := (c.WeightWrites + int64(tiles) - 1) / int64(tiles)
	rowsPerTile := (writesPerTile + int64(cfg.CrossbarCols) - 1) / int64(cfg.CrossbarCols)
	return LoadCost{
		LatencyNs: float64(rowsPerTile) * perWriteNs,
		EnergyPJ:  float64(c.WeightWrites) * perWritePJ,
		Writes:    c.WeightWrites,
	}, nil
}
