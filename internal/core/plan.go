// Package core implements the paper's primary contribution: TacitMap,
// the highly parallel data mapping for BNN XNOR+Popcount on VMM-capable
// 1T1R crossbars, together with the state-of-the-art baseline mapping it
// is compared against (CustBinaryMap, Hirtzlin et al. 2020).
//
// A BNN layer is n weight vectors of m bits each. The two mappings:
//
//	TacitMap      — weight vector W_j occupies *column* j as [W_j ; ¬W_j]
//	                (2m cells). The input [X ; ¬X] drives the rows; one
//	                analog VMM evaluates all n columns simultaneously and
//	                the ADCs read the n popcounts directly. 1 step.
//	CustBinaryMap — weight vector W_j occupies *row* j as the interleaved
//	                pairs (w, ¬w) in 2T2R cells. Rows are activated one at
//	                a time; PCSAs sense m XNOR bits which digital counters
//	                + a popcount tree accumulate. n steps + digital logic.
//
// Layers larger than one physical array are tiled; Plan types capture
// the resulting geometry and primitive-operation counts, which the
// architecture simulator (internal/sim) converts into time and energy.
package core

import (
	"fmt"
)

// TacitPlan is the tiling geometry of one BNN layer under TacitMap.
type TacitPlan struct {
	// N is the number of weight vectors (layer outputs), M their length.
	N, M int
	// ArrayRows, ArrayCols are the physical crossbar dimensions.
	ArrayRows, ArrayCols int
	// BitsPerTile is how many weight bits fit one row-tile: the column
	// stores [w ; ¬w], so BitsPerTile = ArrayRows/2.
	BitsPerTile int
	// RowTiles = ceil(M / BitsPerTile): tiles along the bit dimension.
	// Their partial popcounts are summed by a small digital adder tree.
	RowTiles int
	// ColTiles = ceil(N / ArrayCols): tiles along the weight-vector
	// dimension; independent, no reduction needed.
	ColTiles int
}

// PlanTacit computes the TacitMap tiling of an n×m layer onto
// rows×cols arrays.
func PlanTacit(n, m, rows, cols int) (TacitPlan, error) {
	if n <= 0 || m <= 0 {
		return TacitPlan{}, fmt.Errorf("core: layer dims must be positive, got n=%d m=%d", n, m)
	}
	if rows < 2 || cols < 1 {
		return TacitPlan{}, fmt.Errorf("core: array %dx%d too small for TacitMap", rows, cols)
	}
	bpt := rows / 2
	return TacitPlan{
		N: n, M: m,
		ArrayRows: rows, ArrayCols: cols,
		BitsPerTile: bpt,
		RowTiles:    ceilDiv(m, bpt),
		ColTiles:    ceilDiv(n, cols),
	}, nil
}

// Tiles returns the total number of physical arrays the layer occupies.
func (p TacitPlan) Tiles() int { return p.RowTiles * p.ColTiles }

// SerialStepsPerInput is the critical-path step count for one input
// vector when tiles map to distinct physical arrays (the spatial-
// architecture case): a single VMM step, since every tile fires at once
// and the adder tree is pipelined behind the ADCs.
func (p TacitPlan) SerialStepsPerInput() int { return 1 }

// SingleArrayStepsPerInput is the step count when only one physical
// array exists and tiles must time-multiplex onto it (the E5
// microbenchmark configuration).
func (p TacitPlan) SingleArrayStepsPerInput() int { return p.Tiles() }

// ADCConversionsPerInput counts analog→digital conversions for one
// input: every occupied column of every tile converts once.
func (p TacitPlan) ADCConversionsPerInput() int {
	full := (p.ColTiles - 1) * p.ArrayCols
	last := p.N - full
	return p.RowTiles * (full + last)
}

// DACConversionsPerInput counts input-side conversions: each row-tile
// receives 2·bits driven rows (the slice and its complement).
func (p TacitPlan) DACConversionsPerInput() int {
	total := 0
	for t := 0; t < p.RowTiles; t++ {
		bits := p.BitsPerTile
		if t == p.RowTiles-1 {
			bits = p.M - t*p.BitsPerTile
		}
		total += 2 * bits
	}
	return total * p.ColTiles
}

// DigitalAddsPerInput counts the partial-popcount additions: each of the
// N outputs needs RowTiles−1 adds.
func (p TacitPlan) DigitalAddsPerInput() int { return p.N * (p.RowTiles - 1) }

// CustPlan is the tiling geometry of one BNN layer under CustBinaryMap.
type CustPlan struct {
	N, M int
	// ArrayRows is the word-line count; LogicalCols = physical cols / 2
	// is how many weight bits fit per row (2T2R interleaving).
	ArrayRows, LogicalCols int
	// RowTiles = ceil(N / ArrayRows), ColTiles = ceil(M / LogicalCols).
	RowTiles, ColTiles int
}

// PlanCust computes the CustBinaryMap tiling of an n×m layer onto
// arrays with `rows` word lines and `logicalCols` 2T2R cells per row.
func PlanCust(n, m, rows, logicalCols int) (CustPlan, error) {
	if n <= 0 || m <= 0 {
		return CustPlan{}, fmt.Errorf("core: layer dims must be positive, got n=%d m=%d", n, m)
	}
	if rows < 1 || logicalCols < 1 {
		return CustPlan{}, fmt.Errorf("core: array %dx%d too small for CustBinaryMap", rows, logicalCols)
	}
	return CustPlan{
		N: n, M: m,
		ArrayRows: rows, LogicalCols: logicalCols,
		RowTiles: ceilDiv(n, rows),
		ColTiles: ceilDiv(m, logicalCols),
	}, nil
}

// Tiles returns the number of physical arrays occupied.
func (p CustPlan) Tiles() int { return p.RowTiles * p.ColTiles }

// RowActivationsPerInput counts word-line activations for one input
// vector: every weight vector is visited once in every column tile.
func (p CustPlan) RowActivationsPerInput() int { return p.N * p.ColTiles }

// SerialStepsPerInput is the critical path for one input with tiles on
// distinct arrays: row activations within an array are inherently
// sequential, so the path is the tallest row tile.
func (p CustPlan) SerialStepsPerInput() int {
	if p.N < p.ArrayRows {
		return p.N
	}
	return p.ArrayRows
}

// SingleArrayStepsPerInput is the step count with one physical array.
func (p CustPlan) SingleArrayStepsPerInput() int { return p.RowActivationsPerInput() }

// PopcountOpsPerInput counts digital popcount-tree operations (local
// 5-bit counters per column + the global tree, one invocation per row
// activation, per the paper's §III description).
func (p CustPlan) PopcountOpsPerInput() int { return p.RowActivationsPerInput() }

// DigitalAddsPerInput counts cross-tile partial merges: each output
// needs ColTiles−1 adds.
func (p CustPlan) DigitalAddsPerInput() int { return p.N * (p.ColTiles - 1) }

// CompactRect shapes a tile count into the most compact rectangle that
// fits a mesh of width maxW: the squarest w×h with w·h ≥ tiles and
// w ≤ maxW. This is the region-local layout the locality-aware placer
// gives every layer — a near-square footprint minimizes the XY hop
// distance between the layer's own tiles and to its neighbours, where
// the flat VCore allocator would smear the same tiles along a row.
func CompactRect(tiles, maxW int) (w, h int) {
	if tiles < 1 {
		tiles = 1
	}
	if maxW < 1 {
		maxW = 1
	}
	w = 1
	for w*w < tiles && w < maxW {
		w++
	}
	return w, ceilDiv(tiles, w)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
