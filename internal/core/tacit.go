package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
)

// TacitMapped is a BNN layer programmed onto crossbar arrays under the
// TacitMap layout, ready to execute XNOR+Popcount workloads.
//
// The tiles of a layer compute at the same time in hardware, and so do
// they here: every per-tile pass (programming, VMM/MMM, ageing, fault
// injection, recalibration) fans out over min(GOMAXPROCS, tiles)
// workers, each tile touched by exactly one worker per call (see
// fanOut). Each worker carries its own drive, count and partial-sum
// scratch, sized when the layer is mapped, so the Into execution forms
// (ExecuteInto / ExecuteMMMInto) perform zero steady-state heap
// allocations. Consequently a TacitMapped is not safe for concurrent
// use.
type TacitMapped struct {
	plan TacitPlan
	cfg  crossbar.Config
	// tiles[rowTile*ColTiles+colTile]
	tiles []*crossbar.Array
	// tileBits[rowTile] is the number of weight bits the tile holds.
	tileBits []int
	// Fan-out state: the running call's job, the next tile to draw,
	// the next helper worker id, and the helpers' join.
	job     tileJob
	workers []*tileWorker
	next    atomic.Int64
	ids     atomic.Int64
	wg      sync.WaitGroup
	one     [1]*bitops.Vector // ExecuteInto's input as a job's xs, without allocating
}

// The fan-out helpers are a process-wide pool of goroutines parked on
// helperJobs, started on demand up to GOMAXPROCS−1 and kept for the life
// of the process. A fan-out call hands its mapped layer to n−1 of them,
// each of which runs one worker of the call. Starting goroutines per
// call instead would allocate: an exiting goroutine's descriptor goes to
// the free list of the core it ran on, so the caller's core keeps
// allocating fresh ones.
var (
	helperJobs    = make(chan *TacitMapped)
	helperMu      sync.Mutex
	helperStarted int
)

// startHelpers makes sure at least n helpers run.
func startHelpers(n int) {
	helperMu.Lock()
	defer helperMu.Unlock()
	for ; helperStarted < n; helperStarted++ {
		go func() {
			for t := range helperJobs {
				t.work(t.workers[t.ids.Add(1)])
				t.wg.Done()
			}
		}()
	}
}

// tileOp names the per-tile pass of a fan-out call.
type tileOp int

const (
	opProgram tileOp = iota
	opVMM
	opMMM
	opAge
	opFaults
	opReprogram
)

// tileJob is the argument of one fan-out call, read-only to its
// workers.
type tileJob struct {
	op      tileOp
	weights *bitops.Matrix      // opProgram
	xs      []*bitops.Vector    // opVMM (one input), opMMM
	seconds float64             // opAge
	faults  crossbar.FaultModel // opFaults
}

// tileWorker is one fan-out worker's private scratch and results.
type tileWorker struct {
	rt     int              // row tile the drives hold (-1: none yet)
	drives []*bitops.Vector // per-input [x_slice ; ¬x_slice ; 0…] row drive
	counts [][]int          // per-input counts of the current tile
	sums   [][]int          // per-input partial popcounts (length n)
	// Per-call results, added up after the join.
	flipped    int
	set, reset int64
	err        error // the first failure
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
		tiles:    make([]*crossbar.Array, plan.RowTiles*plan.ColTiles),
		tileBits: make([]int, plan.RowTiles),
	}
	for rt := range t.tileBits {
		t.tileBits[rt] = min(plan.BitsPerTile, plan.M-rt*plan.BitsPerTile)
	}
	// Sizes every worker's execution scratch, so the first execution
	// call allocates nothing either.
	if _, err := t.fanOut(tileJob{op: opProgram, weights: weights}); err != nil {
		return nil, err
	}
	return t, nil
}

// programTile creates tile (rt, ct) and programs its layout. The layout
// is assembled transposed (one matrix row per crossbar column) so the
// [w ; ¬w] pairs are built with word-wise blits off the weight rows,
// then flipped into row-major crossbar orientation with the blocked
// Transpose — no per-bit Get/Set.
func (t *TacitMapped) programTile(weights *bitops.Matrix, rt, ct int) error {
	cfg := t.cfg
	cfg.Seed = t.cfg.Seed + int64(rt*t.plan.ColTiles+ct+1)
	arr, err := crossbar.NewArray(cfg)
	if err != nil {
		return err
	}
	layout := bitops.NewMatrix(cfg.Cols, cfg.Rows)
	bits := t.tileBits[rt]
	lo := rt * t.plan.BitsPerTile
	hi := lo + bits
	for j := 0; j < cfg.Cols && ct*cfg.Cols+j < t.plan.N; j++ {
		col := layout.Row(j) // view into the transposed layout
		wrow := weights.Row(ct*cfg.Cols + j)
		col.Blit(0, wrow, lo, hi)
		col.BlitNot(bits, wrow, lo, hi)
	}
	if err := arr.Program(layout.Transpose()); err != nil {
		return err
	}
	t.tiles[rt*t.plan.ColTiles+ct] = arr
	return nil
}

// fanOut runs job over every tile on min(GOMAXPROCS, tiles) workers
// and returns those workers for the caller to add up their results.
// Workers draw tile indices from a shared counter, so in one call each
// array is touched by exactly one goroutine and sees the same sequence
// of operations, and so of RNG draws (every array owns its RNG, seeded
// per tile), as in a serial pass; the integer partial sums are exact
// in any order. Worker 0 runs on the caller and workers 1…n−1 on pool
// helpers: with one worker the call runs inline.
func (t *TacitMapped) fanOut(job tileJob) ([]*tileWorker, error) {
	n := min(runtime.GOMAXPROCS(0), len(t.tiles))
	t.grow(n, max(len(job.xs), 1))
	ws := t.workers[:n]
	t.job = job
	t.next.Store(0)
	t.ids.Store(0)
	if n > 1 {
		startHelpers(n - 1)
		t.wg.Add(n - 1)
		for range n - 1 {
			helperJobs <- t
		}
	}
	t.work(ws[0])
	t.wg.Wait()
	t.job = tileJob{} // drop the references to the caller's inputs
	for _, w := range ws {
		if w.err != nil {
			return ws, w.err
		}
	}
	return ws, nil
}

// grow makes sure n workers exist, each with scratch for k inputs.
func (t *TacitMapped) grow(n, k int) {
	for len(t.workers) < n {
		t.workers = append(t.workers, &tileWorker{})
	}
	for _, w := range t.workers[:n] {
		for len(w.drives) < k {
			w.drives = append(w.drives, bitops.NewVector(t.cfg.Rows))
			w.counts = append(w.counts, make([]int, t.cfg.Cols))
			w.sums = append(w.sums, make([]int, t.plan.N))
		}
	}
}

// work draws and runs tiles of the current job until none are left.
func (t *TacitMapped) work(w *tileWorker) {
	for _, sum := range w.sums[:len(t.job.xs)] {
		clear(sum)
	}
	w.rt, w.flipped, w.set, w.reset, w.err = -1, 0, 0, 0, nil
	for {
		i := int(t.next.Add(1)) - 1
		if i >= len(t.tiles) {
			return
		}
		if err := t.tile(w, i); err != nil && w.err == nil {
			w.err = err
		}
	}
}

// tile runs the current job on tile i.
func (t *TacitMapped) tile(w *tileWorker, i int) error {
	job := &t.job
	rt, ct := i/t.plan.ColTiles, i%t.plan.ColTiles
	arr := t.tiles[i]
	switch job.op {
	case opProgram:
		return t.programTile(job.weights, rt, ct)
	case opVMM, opMMM:
		k := len(job.xs)
		if w.rt != rt { // tiles are drawn in ascending order, so each row tile's drive is built once
			for j, x := range job.xs {
				t.driveInto(x, rt, w.drives[j])
			}
			w.rt = rt
		}
		var err error
		if job.op == opVMM {
			_, err = arr.VMMInto(w.drives[0], w.counts[0])
		} else {
			_, err = arr.MMMInto(w.drives[:k], w.counts[:k])
		}
		if err != nil {
			return err
		}
		base := ct * t.cfg.Cols
		live := min(t.cfg.Cols, t.plan.N-base)
		for j := range k {
			sum := w.sums[j][base : base+live]
			for c, n := range w.counts[j][:live] {
				sum[c] += n // digital adder tree across row tiles
			}
		}
	case opAge:
		arr.Age(job.seconds)
	case opFaults:
		f := job.faults
		f.Seed += int64(i) // a distinct placement per tile
		n, err := arr.InjectFaults(f)
		w.flipped += n
		return err
	case opReprogram:
		s, r := arr.Reprogram()
		w.set += s
		w.reset += r
	}
	return nil
}

// sumInto writes input j's popcounts, the workers' partial sums added
// up, into out.
func sumInto(ws []*tileWorker, j int, out []int) {
	for c := range out {
		n := 0
		for _, w := range ws {
			n += w.sums[j][c]
		}
		out[c] = n
	}
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
// nil allocates). All intermediate drive vectors, per-tile counts and
// partial sums live in TacitMapped-owned worker scratch.
func (t *TacitMapped) ExecuteInto(x *bitops.Vector, out []int) ([]int, error) {
	if x.Len() != t.plan.M {
		return nil, fmt.Errorf("core: input length %d != m %d", x.Len(), t.plan.M)
	}
	if out == nil {
		out = make([]int, t.plan.N)
	} else if len(out) != t.plan.N {
		return nil, fmt.Errorf("core: ExecuteInto dst length %d != n %d", len(out), t.plan.N)
	}
	t.one[0] = x
	ws, err := t.fanOut(tileJob{op: opVMM, xs: t.one[:]})
	t.one[0] = nil
	if err != nil {
		return nil, err
	}
	sumInto(ws, 0, out)
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
// rows are allocated). Drive vectors, per-tile count rows and partial
// sums live in TacitMapped-owned worker scratch that grows to the
// largest K seen.
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
	}
	ws, err := t.fanOut(tileJob{op: opMMM, xs: xs})
	if err != nil {
		return nil, err
	}
	for i := range out {
		sumInto(ws, i, out[i])
	}
	return out, nil
}

// Stats aggregates event counters across all tiles.
func (t *TacitMapped) Stats() crossbar.Stats {
	var s crossbar.Stats
	for _, a := range t.tiles {
		s.Add(a.Stats())
	}
	return s
}

// ResetStats zeroes all tile counters.
func (t *TacitMapped) ResetStats() {
	for _, a := range t.tiles {
		a.ResetStats()
	}
}

// InjectFaults applies a stuck-at defect model to every tile (tile i
// gets the placement of seed f.Seed+i) and returns the total number of
// logically flipped cells.
func (t *TacitMapped) InjectFaults(f crossbar.FaultModel) (int, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	ws, err := t.fanOut(tileJob{op: opFaults, faults: f})
	flipped := 0
	for _, w := range ws {
		flipped += w.flipped
	}
	return flipped, err
}

// Reprogram re-programs every tile from its stored layout with the
// tile's RNG reset to its seed — see crossbar.Array.Reprogram. Ages
// reset, program noise is re-drawn deterministically (idempotent across
// recalibrations), stuck-at defects survive. Returns the total SET and
// RESET write counts across tiles for pricing.
func (t *TacitMapped) Reprogram() (setWrites, resetWrites int64) {
	ws, _ := t.fanOut(tileJob{op: opReprogram}) // Reprogram cannot fail
	for _, w := range ws {
		setWrites += w.set
		resetWrites += w.reset
	}
	return setWrites, resetWrites
}

// Tiles returns the number of crossbar arrays the mapping occupies.
func (t *TacitMapped) Tiles() int { return len(t.tiles) }

// Age advances every tile's post-programming age — the ePCM
// resistance-drift study (oPCM does not drift, paper §II-C). Like
// crossbar.Array.Age it panics on a negative or NaN time, here on the
// caller's goroutine.
func (t *TacitMapped) Age(seconds float64) {
	if t.cfg.Tech != device.EPCM {
		return
	}
	if !(seconds >= 0) {
		panic("core: negative or NaN ageing time")
	}
	t.fanOut(tileJob{op: opAge, seconds: seconds})
}
