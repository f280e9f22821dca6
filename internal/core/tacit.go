package core

import (
	"fmt"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
)

// TacitMapped is a BNN layer programmed onto crossbar arrays under the
// TacitMap layout, ready to execute XNOR+Popcount workloads.
//
// A TacitMapped carries per-tile drive and partial-sum scratch, so the
// Into execution forms (ExecuteInto / ExecuteMMMInto) perform zero
// steady-state heap allocations. Consequently a TacitMapped is not safe
// for concurrent use.
type TacitMapped struct {
	plan TacitPlan
	cfg  crossbar.Config
	// arrays[rowTile][colTile]
	arrays [][]*crossbar.Array
	// tileBits[rowTile] is the number of weight bits the tile holds.
	tileBits []int
	// Reusable execution scratch.
	drive  *bitops.Vector   // [x_slice ; ¬x_slice ; 0…] row drive
	counts []int            // per-tile VMM output
	drives []*bitops.Vector // per-wavelength drives (MMM)
	mmmCnt [][]int          // per-wavelength per-tile MMM output
}

// MapTacit programs the n×m weight matrix (one weight vector per row of
// `weights`) onto arrays of the given configuration using TacitMap:
// weight vector j becomes column j%cols of tile (⌊bit/BitsPerTile⌋,
// ⌊j/cols⌋), stored as the slice [w ; ¬w].
func MapTacit(weights *bitops.Matrix, cfg crossbar.Config) (*TacitMapped, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := PlanTacit(weights.Rows(), weights.Cols(), cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	t := &TacitMapped{
		plan:     plan,
		cfg:      cfg,
		arrays:   make([][]*crossbar.Array, plan.RowTiles),
		tileBits: make([]int, plan.RowTiles),
		drive:    bitops.NewVector(cfg.Rows),
		counts:   make([]int, cfg.Cols),
	}
	// Each tile layout is assembled transposed (one matrix row per
	// crossbar column) so the [w ; ¬w] pairs are built with word-wise
	// blits off the weight rows, then flipped into row-major crossbar
	// orientation with the blocked Transpose — no per-bit Get/Set.
	colMajor := bitops.NewMatrix(cfg.Cols, cfg.Rows)
	for rt := 0; rt < plan.RowTiles; rt++ {
		bits := plan.BitsPerTile
		if rt == plan.RowTiles-1 {
			bits = plan.M - rt*plan.BitsPerTile
		}
		t.tileBits[rt] = bits
		t.arrays[rt] = make([]*crossbar.Array, plan.ColTiles)
		lo, hi := rt*plan.BitsPerTile, rt*plan.BitsPerTile+bits
		for ct := 0; ct < plan.ColTiles; ct++ {
			acfg := cfg
			acfg.Seed = cfg.Seed + int64(rt*plan.ColTiles+ct+1)
			arr, err := crossbar.NewArray(acfg)
			if err != nil {
				return nil, err
			}
			for j := 0; j < cfg.Cols; j++ {
				col := colMajor.Row(j) // view into the transposed layout
				col.Zero()
				w := ct*cfg.Cols + j
				if w >= plan.N {
					continue
				}
				wrow := weights.Row(w)
				col.Blit(0, wrow, lo, hi)
				col.BlitNot(bits, wrow, lo, hi)
			}
			if err := arr.Program(colMajor.Transpose()); err != nil {
				return nil, err
			}
			t.arrays[rt][ct] = arr
		}
	}
	return t, nil
}

// Plan returns the tiling geometry.
func (t *TacitMapped) Plan() TacitPlan { return t.plan }

// driveInto builds the [x_slice ; ¬x_slice] row drive for tile rt into
// drive, zero-padded to the physical row count (undriven rows
// contribute no signal, matching unused cells programmed to 0). Both
// halves are written word-wise.
func (t *TacitMapped) driveInto(x *bitops.Vector, rt int, drive *bitops.Vector) {
	lo := rt * t.plan.BitsPerTile
	hi := lo + t.tileBits[rt]
	drive.Zero()
	drive.Blit(0, x, lo, hi)
	drive.BlitNot(hi-lo, x, lo, hi)
}

// ExecuteInto performs one full XNOR+Popcount pass for input x (length
// m): one VMM per tile plus the digital partial-sum adds, writing
// Popcount(XNOR(x, W_j)) for every weight vector j into out (length n;
// nil allocates). All intermediate drive vectors and per-tile counts
// live in TacitMapped-owned scratch.
func (t *TacitMapped) ExecuteInto(x *bitops.Vector, out []int) ([]int, error) {
	if x.Len() != t.plan.M {
		return nil, fmt.Errorf("core: input length %d != m %d", x.Len(), t.plan.M)
	}
	if out == nil {
		out = make([]int, t.plan.N)
	} else if len(out) != t.plan.N {
		return nil, fmt.Errorf("core: ExecuteInto dst length %d != n %d", len(out), t.plan.N)
	}
	for i := range out {
		out[i] = 0
	}
	for rt := 0; rt < t.plan.RowTiles; rt++ {
		t.driveInto(x, rt, t.drive)
		for ct := 0; ct < t.plan.ColTiles; ct++ {
			counts, err := t.arrays[rt][ct].VMMInto(t.drive, t.counts)
			if err != nil {
				return nil, err
			}
			base := ct * t.cfg.Cols
			for j := 0; j < t.cfg.Cols && base+j < t.plan.N; j++ {
				out[base+j] += counts[j] // digital adder tree across row tiles
			}
		}
	}
	return out, nil
}

// ExecuteMMM processes up to K input vectors in a single crossbar
// activation per tile via WDM. Only valid on oPCM arrays. Returns
// popcounts[k][j].
func (t *TacitMapped) ExecuteMMM(xs []*bitops.Vector) ([][]int, error) {
	return t.ExecuteMMMInto(xs, nil)
}

// ExecuteMMMInto is the allocation-free form of ExecuteMMM: out must be
// nil (fully allocated here) or hold one row of length n per input (nil
// rows are allocated). Drive vectors and per-tile count rows live in
// TacitMapped-owned scratch that grows to the largest K seen.
func (t *TacitMapped) ExecuteMMMInto(xs []*bitops.Vector, out [][]int) ([][]int, error) {
	if t.cfg.Tech != device.OPCM {
		return nil, fmt.Errorf("core: ExecuteMMM requires oPCM arrays, have %v", t.cfg.Tech)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("core: ExecuteMMM with no inputs")
	}
	for i, x := range xs {
		if x.Len() != t.plan.M {
			return nil, fmt.Errorf("core: input %d length %d != m %d", i, x.Len(), t.plan.M)
		}
	}
	k := len(xs)
	if out == nil {
		out = make([][]int, k)
	} else if len(out) != k {
		return nil, fmt.Errorf("core: ExecuteMMMInto dst has %d rows for %d inputs", len(out), k)
	}
	for i := range out {
		if out[i] == nil {
			out[i] = make([]int, t.plan.N)
		} else if len(out[i]) != t.plan.N {
			return nil, fmt.Errorf("core: ExecuteMMMInto dst row %d length %d != n %d", i, len(out[i]), t.plan.N)
		}
		for j := range out[i] {
			out[i][j] = 0
		}
	}
	for len(t.drives) < k {
		t.drives = append(t.drives, bitops.NewVector(t.cfg.Rows))
		t.mmmCnt = append(t.mmmCnt, make([]int, t.cfg.Cols))
	}
	drives := t.drives[:k]
	for rt := 0; rt < t.plan.RowTiles; rt++ {
		for i, x := range xs {
			t.driveInto(x, rt, drives[i])
		}
		for ct := 0; ct < t.plan.ColTiles; ct++ {
			counts, err := t.arrays[rt][ct].MMMInto(drives, t.mmmCnt[:k])
			if err != nil {
				return nil, err
			}
			base := ct * t.cfg.Cols
			for i := range xs {
				row := counts[i]
				for j := 0; j < t.cfg.Cols && base+j < t.plan.N; j++ {
					out[i][base+j] += row[j]
				}
			}
		}
	}
	return out, nil
}

// Stats aggregates event counters across all tiles.
func (t *TacitMapped) Stats() crossbar.Stats {
	var s crossbar.Stats
	for _, row := range t.arrays {
		for _, a := range row {
			s.Add(a.Stats())
		}
	}
	return s
}

// ResetStats zeroes all tile counters.
func (t *TacitMapped) ResetStats() {
	for _, row := range t.arrays {
		for _, a := range row {
			a.ResetStats()
		}
	}
}

// InjectFaults applies a stuck-at defect model to every tile (each tile
// gets a distinct placement derived from the model's seed) and returns
// the total number of logically flipped cells.
func (t *TacitMapped) InjectFaults(f crossbar.FaultModel) (int, error) {
	flipped := 0
	i := int64(0)
	for _, row := range t.arrays {
		for _, a := range row {
			tf := f
			tf.Seed = f.Seed + i
			i++
			n, err := a.InjectFaults(tf)
			if err != nil {
				return flipped, err
			}
			flipped += n
		}
	}
	return flipped, nil
}

// Reprogram re-programs every tile from its stored layout with the
// tile's RNG reset to its seed — see crossbar.Array.Reprogram. Ages
// reset, program noise is re-drawn deterministically (idempotent across
// recalibrations), stuck-at defects survive. Returns the total SET and
// RESET write counts across tiles for pricing.
func (t *TacitMapped) Reprogram() (setWrites, resetWrites int64) {
	for _, row := range t.arrays {
		for _, a := range row {
			s, r := a.Reprogram()
			setWrites += s
			resetWrites += r
		}
	}
	return setWrites, resetWrites
}

// Tiles returns the number of crossbar arrays the mapping occupies.
func (t *TacitMapped) Tiles() int {
	n := 0
	for _, row := range t.arrays {
		n += len(row)
	}
	return n
}

// Age advances every tile's post-programming age — the ePCM
// resistance-drift study (oPCM does not drift, paper §II-C).
func (t *TacitMapped) Age(seconds float64) {
	for _, row := range t.arrays {
		for _, a := range row {
			a.Age(seconds)
		}
	}
}
