package core

import (
	"fmt"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
)

// CustMapped is a BNN layer programmed onto 2T2R differential arrays
// under the CustBinaryMap layout (the SotA baseline, Hirtzlin et al.).
// Carries drive/sense scratch like TacitMapped; not safe for
// concurrent use.
type CustMapped struct {
	plan CustPlan
	cfg  crossbar.DiffConfig
	// arrays[rowTile][colTile]
	arrays [][]*crossbar.DiffArray
	// tileRows[rt] and tileCols[ct] are the occupied extents.
	tileRows []int
	tileCols []int
	// Reusable execution scratch.
	drive *bitops.Vector
	sense *bitops.Vector
}

// MapCust programs the n×m weight matrix onto differential arrays:
// weight vector j occupies word line j%rows of row-tile ⌊j/rows⌋, with
// its m bits split across column tiles of LogicalCols bits each.
func MapCust(weights *bitops.Matrix, cfg crossbar.DiffConfig) (*CustMapped, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := PlanCust(weights.Rows(), weights.Cols(), cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	c := &CustMapped{
		plan:     plan,
		cfg:      cfg,
		arrays:   make([][]*crossbar.DiffArray, plan.RowTiles),
		tileRows: make([]int, plan.RowTiles),
		tileCols: make([]int, plan.ColTiles),
		drive:    bitops.NewVector(cfg.Cols),
		sense:    bitops.NewVector(cfg.Cols),
	}
	for ct := 0; ct < plan.ColTiles; ct++ {
		bits := plan.LogicalCols
		if ct == plan.ColTiles-1 {
			bits = plan.M - ct*plan.LogicalCols
		}
		c.tileCols[ct] = bits
	}
	for rt := 0; rt < plan.RowTiles; rt++ {
		rows := cfg.Rows
		if rt == plan.RowTiles-1 {
			rows = plan.N - rt*cfg.Rows
		}
		c.tileRows[rt] = rows
		c.arrays[rt] = make([]*crossbar.DiffArray, plan.ColTiles)
		for ct := 0; ct < plan.ColTiles; ct++ {
			acfg := cfg
			acfg.Seed = cfg.Seed + int64(rt*plan.ColTiles+ct+1)
			arr, err := crossbar.NewDiffArray(acfg)
			if err != nil {
				return nil, err
			}
			layout := bitops.NewMatrix(cfg.Rows, cfg.Cols)
			lo := ct * plan.LogicalCols
			for r := 0; r < rows; r++ {
				// Word-wise copy of the weight slice into the tile row.
				layout.Row(r).Blit(0, weights.Row(rt*cfg.Rows+r), lo, lo+c.tileCols[ct])
			}
			if err := arr.Program(layout); err != nil {
				return nil, err
			}
			c.arrays[rt][ct] = arr
		}
	}
	return c, nil
}

// Plan returns the tiling geometry.
func (c *CustMapped) Plan() CustPlan { return c.plan }

// Execute performs the full XNOR+Popcount pass for input x: for every
// weight vector, one word-line activation per column tile, PCSA sensing
// and digital popcount, with partial sums merged across column tiles.
func (c *CustMapped) Execute(x *bitops.Vector) ([]int, error) {
	return c.executeInto(x, nil)
}

// executeInto is the allocation-free form of Execute: the popcounts are
// written into out (length n; nil allocates). Drive and sense vectors
// live in CustMapped-owned scratch.
func (c *CustMapped) executeInto(x *bitops.Vector, out []int) ([]int, error) {
	if x.Len() != c.plan.M {
		return nil, fmt.Errorf("core: input length %d != m %d", x.Len(), c.plan.M)
	}
	if out == nil {
		out = make([]int, c.plan.N)
	} else if len(out) != c.plan.N {
		return nil, fmt.Errorf("core: ExecuteInto dst length %d != n %d", len(out), c.plan.N)
	}
	for i := range out {
		out[i] = 0
	}
	for rt := 0; rt < c.plan.RowTiles; rt++ {
		for ct := 0; ct < c.plan.ColTiles; ct++ {
			lo := ct * c.plan.LogicalCols
			// Pad the drive to the physical column count; padding columns
			// hold (0, 1) pairs which sense as XNOR(0, 0) = 1, so we only
			// count the occupied prefix.
			c.drive.Zero()
			c.drive.Blit(0, x, lo, lo+c.tileCols[ct])
			for r := 0; r < c.tileRows[rt]; r++ {
				bits, err := c.arrays[rt][ct].ReadRowXnorInto(r, c.drive, c.sense)
				if err != nil {
					return nil, err
				}
				out[rt*c.cfg.Rows+r] += bits.PopcountRange(0, c.tileCols[ct])
			}
		}
	}
	return out, nil
}

// Stats aggregates event counters across all tiles.
func (c *CustMapped) Stats() crossbar.DiffStats {
	var s crossbar.DiffStats
	for _, row := range c.arrays {
		for _, a := range row {
			s.Add(a.Stats())
		}
	}
	return s
}

// ResetStats zeroes all tile counters.
func (c *CustMapped) ResetStats() {
	for _, row := range c.arrays {
		for _, a := range row {
			a.ResetStats()
		}
	}
}
