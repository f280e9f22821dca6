// Package crossbar simulates analog in-memory compute arrays.
//
// Two array organizations from the paper are modeled:
//
//   - Array: a conventional 1T1R crossbar (one PCM device per cell) with
//     DACs on the rows and ADCs on the columns. Driving a set of rows
//     accumulates per-column cell currents (Kirchhoff) which the ADC
//     decodes back to an integer count. This is the substrate TacitMap
//     targets: all columns are evaluated in a single VMM step.
//
//   - DiffArray (differential.go): a 2T2R crossbar with a pre-charge
//     sense amplifier (PCSA) per column pair, as used by the
//     CustBinaryMap baseline (Hirtzlin et al.): one row is activated per
//     step and each PCSA emits one XNOR bit, followed by digital
//     popcount circuitry.
//
// Both organizations support ePCM (current-domain) and oPCM
// (photocurrent-domain) cells from internal/device. All analog effects
// — programming variability, read noise, drift, WDM crosstalk — are
// injected at the device level, so decoding errors propagate to the
// returned counts exactly as they would in hardware.
//
// # Storage layout
//
// An array does not hold per-cell objects. Each array owns flat
// struct-of-arrays planes — contiguous []float64 slices indexed
// r*Cols+c — holding the as-programmed conductance/transmittance, the
// per-cell age (ePCM drift state), and the deterministic per-read
// signal. The device physics live in the pure functions on
// device.EPCMParams / device.OPCMParams; the hot loops here stream the
// signal plane row-major over the driven-row set, which the packed
// input vector supplies word-wise (trailing-zero scan). See DESIGN.md
// "Flat analog storage" for the layout and the RNG-ordering contract.
package crossbar

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

const wordBits = 64

// Config describes a 1T1R crossbar array.
type Config struct {
	// Rows and Cols are the physical array dimensions.
	Rows, Cols int
	// Tech selects the cell technology.
	Tech device.Technology
	// EPCM / OPCM hold the device parameters for the chosen technology.
	EPCM device.EPCMParams
	OPCM device.OPCMParams
	// Seed seeds the array's private RNG. Ignored if Ideal.
	Seed int64
	// Ideal disables all variability and noise (ground-truth mode).
	Ideal bool
	// ColumnsPerADC is the ADC sharing factor: one ADC serves this many
	// columns via an analog mux, serializing conversions. 1 = one ADC
	// per column (the paper's footnote-1 idealization); the evaluation
	// default is 8. Must divide nothing — ceil division is used.
	ColumnsPerADC int
	// ADCBits bounds the decodable count range to 2^ADCBits−1.
	ADCBits int
}

// DefaultConfig returns the evaluation-default 256×256 array.
func DefaultConfig(tech device.Technology) Config {
	return Config{
		Rows:          256,
		Cols:          256,
		Tech:          tech,
		EPCM:          device.DefaultEPCMParams(),
		OPCM:          device.DefaultOPCMParams(),
		ColumnsPerADC: 8,
		ADCBits:       9, // counts up to 511 ≥ 256 active rows
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rows <= 0 || c.Cols <= 0:
		return fmt.Errorf("crossbar: non-positive dims %dx%d", c.Rows, c.Cols)
	case c.ColumnsPerADC <= 0:
		return fmt.Errorf("crossbar: ColumnsPerADC must be ≥ 1, got %d", c.ColumnsPerADC)
	case c.ADCBits <= 0 || c.ADCBits > 16:
		return fmt.Errorf("crossbar: ADCBits %d outside [1,16]", c.ADCBits)
	}
	if (1<<uint(c.ADCBits))-1 < c.Rows {
		return fmt.Errorf("crossbar: %d-bit ADC cannot encode counts up to %d rows", c.ADCBits, c.Rows)
	}
	switch c.Tech {
	case device.EPCM:
		return c.EPCM.Validate()
	case device.OPCM:
		return c.OPCM.Validate()
	default:
		return fmt.Errorf("crossbar: unknown technology %v", c.Tech)
	}
}

// Stats counts the hardware events an array has performed. The
// architecture simulator converts these into time and energy using the
// cost tables in internal/energy.
type Stats struct {
	CellWrites     int64 // device programming events
	VMMOps         int64 // whole-array analog VMM steps
	RowActivations int64 // driven rows summed over VMM steps
	ADCConversions int64 // analog→digital conversions
	DACConversions int64 // digital→analog input conversions (driven rows)
	WavelengthOps  int64 // per-wavelength column readouts (oPCM MMM)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.CellWrites += other.CellWrites
	s.VMMOps += other.VMMOps
	s.RowActivations += other.RowActivations
	s.ADCConversions += other.ADCConversions
	s.DACConversions += other.DACConversions
	s.WavelengthOps += other.WavelengthOps
}

// Array is a programmed 1T1R crossbar.
//
// Cell state is stored as flat per-array planes (struct-of-arrays,
// indexed r*cols+c) rather than per-cell heap objects:
//
//	prog — as-programmed conductance (ePCM, siemens) or transmittance
//	       (oPCM, dimensionless), programming variability applied;
//	age  — seconds since the cell was last programmed (ePCM only);
//	sig  — the deterministic per-read signal in amperes: the drifted
//	       read current G·V for ePCM, the photocurrent P·R·t0 for oPCM.
//
// Drift is folded into sig when Age advances (one math.Pow per
// distinct cell age per Age call) instead of being recomputed on every
// read; the per-read noise draws are applied on top of sig in the VMM
// loops.
//
// An Array is not safe for concurrent use: it owns a private RNG and
// reusable accumulation scratch.
type Array struct {
	cfg        Config
	rng        *rand.Rand
	rows, cols int
	prog       []float64
	age        []float64 // nil for oPCM (no drift)
	sig        []float64
	// programmed mirrors the logical bits for introspection/tests;
	// effective is programmed with stuck faults overridden — the state
	// the cells (and the drift model) actually hold.
	programmed *bitops.Matrix
	effective  *bitops.Matrix
	// stuckMask/stuckState record injected defects; reapplied after
	// Program. nil mask = no faults.
	stuckMask  *bitops.Matrix
	stuckState *bitops.Matrix
	faultCount int
	stats      Stats
	// Reusable scratch for the zero-allocation execution paths.
	acc    []float64 // per-column accumulated signal (cols)
	mmmSig []float64 // per-wavelength signals, k*cols (grown on demand)
	mmmTot []float64 // per-column total signal across wavelengths (allocated on first MMM)
	mmmAct []int     // per-wavelength active-row counts (grown on demand)
}

// NewArray allocates an unprogrammed array (all cells logic 0).
func NewArray(cfg Config) (*Array, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Array{cfg: cfg, rows: cfg.Rows, cols: cfg.Cols}
	if !cfg.Ideal {
		a.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	n := cfg.Rows * cfg.Cols
	a.prog = make([]float64, n)
	a.sig = make([]float64, n)
	if cfg.Tech == device.EPCM {
		a.age = make([]float64, n)
	}
	a.acc = make([]float64, cfg.Cols)
	a.programmed = bitops.NewMatrix(cfg.Rows, cfg.Cols)
	a.effective = bitops.NewMatrix(cfg.Rows, cfg.Cols)
	a.programAll(a.programmed) // establish defined state in every cell
	a.stats = Stats{}          // initial programming is free (manufacture)
	return a, nil
}

// Stats returns a copy of the accumulated event counters.
func (a *Array) Stats() Stats { return a.stats }

// ResetStats zeroes the event counters.
func (a *Array) ResetStats() { a.stats = Stats{} }

// Program writes the given bit matrix into the array. The matrix must
// match the array dimensions exactly; use internal/mapping for layouts
// smaller than the array.
func (a *Array) Program(m *bitops.Matrix) error {
	if m.Rows() != a.cfg.Rows || m.Cols() != a.cfg.Cols {
		return fmt.Errorf("crossbar: program %dx%d into %dx%d array",
			m.Rows(), m.Cols(), a.cfg.Rows, a.cfg.Cols)
	}
	a.programAll(m)
	a.programmed.CopyFrom(m)
	a.applyFaults() // defects survive reprogramming
	return nil
}

// programCell programs one plane slot to the given state, drawing
// programming variability from the array RNG.
func (a *Array) programCell(idx int, state bool) {
	switch a.cfg.Tech {
	case device.EPCM:
		g := a.cfg.EPCM.ProgramConductance(state, a.rng)
		a.prog[idx] = g
		a.age[idx] = 0
		a.sig[idx] = g * a.cfg.EPCM.ReadVoltage
	case device.OPCM:
		t0 := a.cfg.OPCM.ProgramTransmittance(state, a.rng)
		a.prog[idx] = t0
		a.sig[idx] = t0 * a.cfg.OPCM.InputPowerMW * 1e-3 * a.cfg.OPCM.Responsivity
	}
}

// programAll programs every cell from the logical matrix, row-major —
// the same per-cell RNG draw order as programming one device after
// another, so a seeded array is bit-identical to the per-cell-object
// implementation this package previously used.
func (a *Array) programAll(m *bitops.Matrix) {
	idx := 0
	for r := 0; r < a.rows; r++ {
		row := m.RowWords(r)
		for c := 0; c < a.cols; c++ {
			a.programCell(idx, row[c>>6]>>(uint(c)&63)&1 == 1)
			idx++
		}
	}
	a.effective.CopyFrom(m)
	a.stats.CellWrites += int64(a.rows * a.cols)
}

// Reprogram re-programs every cell from the currently stored logical
// matrix with a fresh RNG stream reset to the array seed — the
// serving-time recalibration primitive. The pass resets every cell's
// drift age, re-draws programming variability deterministically (the
// planes after any recalibration are a pure function of (seed, stored
// bits) — recalibrating twice yields bit-identical planes), reapplies
// the stuck-at fault mask (recalibration cannot heal physical defects),
// and counts the writes in Stats. It returns the SET (logic 1) and
// RESET (logic 0) write counts so callers can price the pass.
func (a *Array) Reprogram() (setWrites, resetWrites int64) {
	if a.rng != nil {
		a.rng = rand.New(rand.NewSource(a.cfg.Seed))
	}
	a.programAll(a.programmed)
	a.applyFaults()
	var on int64
	for _, w := range a.programmed.Words() {
		on += int64(bits.OnesCount64(w))
	}
	total := int64(a.rows * a.cols)
	return on, total - on
}

// Age advances every cell's post-programming age (ePCM drift study).
// The drift decay is folded into the signal plane here, once per Age
// call, so reads stay a flat multiply-accumulate. Cells programmed
// together share one age, so DriftFactor is evaluated once per
// distinct age (a last-value memo) rather than once per RESET cell;
// the product keeps the prog·f·v order, so sig is bit-identical to a
// per-cell evaluation. It panics on a negative or NaN time.
func (a *Array) Age(seconds float64) {
	if a.cfg.Tech != device.EPCM {
		return
	}
	if !(seconds >= 0) {
		panic("crossbar: negative or NaN ageing time")
	}
	p := &a.cfg.EPCM
	v := p.ReadVoltage
	one := math.Float64bits(1)
	memoAge, f := -1.0, uint64(0) // ages are ≥ 0 and never NaN, so the first cell misses
	for r := 0; r < a.rows; r++ {
		row := a.effective.RowWords(r)
		lo, hi := r*a.cols, (r+1)*a.cols
		age, prog, sig := a.age[lo:hi], a.prog[lo:hi], a.sig[lo:hi]
		for c := range age {
			t := age[c] + seconds
			age[c] = t
			if t != memoAge {
				memoAge, f = t, math.Float64bits(p.DriftFactor(t))
			}
			// Only RESET cells drift: a SET cell takes the factor 1,
			// which leaves its prog·v signal bit-identical. The bit
			// select keeps the loop free of a data-dependent branch.
			set := -(row[c>>6] >> (uint(c) & 63) & 1)
			sig[c] = prog[c] * math.Float64frombits(f&^set|one&set) * v
		}
	}
}

// accumulate streams the driven rows of the array into the per-column
// accumulator acc (length cols, zeroed here) and returns the number of
// active rows. The driven-row set comes word-wise off the packed input
// (trailing-zero scan); each driven row is one contiguous row-major
// pass over the signal plane, so per-column sums are accumulated in
// ascending-row order — the same floating-point summation order as the
// original column-major walk, which keeps ideal-mode outputs
// bit-identical. Per-read noise (one draw per driven ePCM cell, up to
// two per driven oPCM cell) is applied row-major; see DESIGN.md for
// the RNG-ordering contract.
func (a *Array) accumulate(input *bitops.Vector, acc []float64) int {
	for i := range acc {
		acc[i] = 0
	}
	active := 0
	words := input.Words()
	switch a.cfg.Tech {
	case device.EPCM:
		sigma := 0.0
		if a.rng != nil {
			sigma = a.cfg.EPCM.ReadNoiseSigma
		}
		for wi, w := range words {
			for w != 0 {
				r := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				active++
				row := a.sig[r*a.cols : (r+1)*a.cols]
				if sigma > 0 {
					rng := a.rng
					for c, s := range row {
						s *= 1 + rng.NormFloat64()*sigma
						if s < 0 {
							s = 0
						}
						acc[c] += s
					}
				} else {
					for c, s := range row {
						acc[c] += s
					}
				}
			}
		}
	case device.OPCM:
		p := &a.cfg.OPCM
		rin, sf := p.RelIntensityNoise, p.ShotNoiseFactor
		if a.rng == nil || (rin == 0 && sf == 0) {
			for wi, w := range words {
				for w != 0 {
					r := wi*wordBits + bits.TrailingZeros64(w)
					w &= w - 1
					active++
					row := a.sig[r*a.cols : (r+1)*a.cols]
					for c, s := range row {
						acc[c] += s
					}
				}
			}
			break
		}
		// Noisy optical read: RIN on the transmittance, then √signal
		// shot noise (two draws per cell, in that order), with the
		// scalars hoisted out of the per-cell loop.
		rng := a.rng
		pr := p.InputPowerMW * 1e-3 * p.Responsivity
		full := pr * p.THigh
		for wi, w := range words {
			for w != 0 {
				r := wi*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
				active++
				row := a.prog[r*a.cols : (r+1)*a.cols]
				for c, t := range row {
					if rin > 0 {
						t *= 1 + rng.NormFloat64()*rin
						if t < 0 {
							t = 0
						} else if t > 1 {
							t = 1
						}
					}
					i := pr * t
					if sf > 0 {
						i += rng.NormFloat64() * sf * math.Sqrt(math.Max(i, 0)*full)
					}
					acc[c] += i
				}
			}
		}
	}
	return active
}

// unitLevels returns the per-cell ON and OFF signal contributions used
// by the ADC decode.
func (a *Array) unitLevels() (on, off float64) {
	switch a.cfg.Tech {
	case device.EPCM:
		p := a.cfg.EPCM
		return p.GOn * p.ReadVoltage, p.GOff * p.ReadVoltage
	default:
		p := a.cfg.OPCM
		full := p.InputPowerMW * 1e-3 * p.Responsivity
		return full * p.THigh, full * p.TLow
	}
}

// decodeCount inverts the accumulation model: a column driven by k
// active rows of which c store ON carries signal ≈ c·on + (k−c)·off, so
// c ≈ (signal − k·off)/(on − off), clamped to the ADC range.
func (a *Array) decodeCount(signal float64, activeRows int) int {
	on, off := a.unitLevels()
	est := (signal - float64(activeRows)*off) / (on - off)
	n := int(math.Round(est))
	if n < 0 {
		n = 0
	}
	maxCount := (1 << uint(a.cfg.ADCBits)) - 1
	if n > maxCount {
		n = maxCount
	}
	if n > activeRows {
		n = activeRows
	}
	return n
}

// VMMInto performs one analog vector-matrix multiplication: input bit
// i drives row i, and every column's accumulated signal is converted by
// the (shared) ADCs. It writes, per column, the decoded count of ON
// cells among the driven rows into dst (length Cols; nil allocates) —
// for a TacitMap-programmed column exactly Popcount(XNOR(x, w)). With a
// caller-owned dst the steady-state path performs zero heap
// allocations.
func (a *Array) VMMInto(input *bitops.Vector, dst []int) ([]int, error) {
	if input.Len() != a.cfg.Rows {
		return nil, fmt.Errorf("crossbar: input length %d != rows %d", input.Len(), a.cfg.Rows)
	}
	if dst == nil {
		dst = make([]int, a.cfg.Cols)
	} else if len(dst) != a.cfg.Cols {
		return nil, fmt.Errorf("crossbar: VMMInto dst length %d != cols %d", len(dst), a.cfg.Cols)
	}
	active := a.accumulate(input, a.acc)
	for c, s := range a.acc {
		dst[c] = a.decodeCount(s, active)
	}
	a.stats.VMMOps++
	a.stats.RowActivations += int64(active)
	a.stats.DACConversions += int64(active)
	a.stats.ADCConversions += int64(a.cfg.Cols)
	return dst, nil
}

// ADCStepsPerVMM returns how many sequential ADC conversion rounds one
// VMM needs under the configured ADC sharing (ceil(cols / adcCount)
// with one ADC per ColumnsPerADC columns — i.e. ColumnsPerADC rounds).
func (a *Array) ADCStepsPerVMM() int { return a.cfg.ColumnsPerADC }

// MMMInto performs a wavelength-division-multiplexed matrix-matrix
// multiply on an oPCM array: each input vector rides its own wavelength
// through the same column, and per-column per-wavelength photodetection
// recovers one count per (column, wavelength). Crosstalk couples a
// fraction of the aggregate other-wavelength signal into each channel
// before decoding. It writes counts[k][col] for input k into dst, which
// must be nil (fully allocated here) or have one row of length Cols per
// input (nil rows are allocated). Calling it on an ePCM array returns
// an error: frequency multiplexing has no electrical equivalent (paper
// §II-C). The per-wavelength signal planes live in array-owned scratch
// that grows to the largest K seen, so the steady-state path performs
// zero heap allocations.
func (a *Array) MMMInto(inputs []*bitops.Vector, dst [][]int) ([][]int, error) {
	if a.cfg.Tech != device.OPCM {
		return nil, fmt.Errorf("crossbar: MMM requires oPCM, array is %v", a.cfg.Tech)
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("crossbar: MMM with no inputs")
	}
	for i, in := range inputs {
		if in.Len() != a.cfg.Rows {
			return nil, fmt.Errorf("crossbar: input %d length %d != rows %d", i, in.Len(), a.cfg.Rows)
		}
	}
	k := len(inputs)
	if dst == nil {
		dst = make([][]int, k)
	} else if len(dst) != k {
		return nil, fmt.Errorf("crossbar: MMMInto dst has %d rows for %d inputs", len(dst), k)
	}
	for i := range dst {
		if dst[i] == nil {
			dst[i] = make([]int, a.cfg.Cols)
		} else if len(dst[i]) != a.cfg.Cols {
			return nil, fmt.Errorf("crossbar: MMMInto dst row %d length %d != cols %d", i, len(dst[i]), a.cfg.Cols)
		}
	}
	if cap(a.mmmSig) < k*a.cols {
		a.mmmSig = make([]float64, k*a.cols)
	}
	if cap(a.mmmAct) < k {
		a.mmmAct = make([]int, k)
	}
	if a.mmmTot == nil {
		a.mmmTot = make([]float64, a.cols)
	}
	sig := a.mmmSig[:k*a.cols]
	act := a.mmmAct[:k]
	for i, in := range inputs {
		act[i] = a.accumulate(in, sig[i*a.cols:(i+1)*a.cols])
	}
	xt := a.cfg.OPCM.CrossTalkLinear()
	coupled := xt > 0 && k > 1
	if coupled {
		// Crosstalk couples each channel to the aggregate of all the
		// others: precompute the per-column total once (O(K·cols)) so
		// each channel subtracts itself, instead of re-summing the K−1
		// other channels per (channel, column) pair (O(K²·cols)).
		tot := a.mmmTot
		for c := range tot {
			tot[c] = 0
		}
		for i := 0; i < k; i++ {
			for c, s := range sig[i*a.cols : (i+1)*a.cols] {
				tot[c] += s
			}
		}
	}
	for i := range inputs {
		row := sig[i*a.cols : (i+1)*a.cols]
		out := dst[i]
		active := act[i]
		if coupled {
			tot := a.mmmTot
			for c, s := range row {
				out[c] = a.decodeCount(s+xt*(tot[c]-s), active)
			}
		} else {
			for c, s := range row {
				out[c] = a.decodeCount(s, active)
			}
		}
		a.stats.WavelengthOps += int64(a.cfg.Cols)
		a.stats.DACConversions += int64(active)
		a.stats.ADCConversions += int64(a.cfg.Cols)
	}
	// One physical crossbar activation regardless of K — the source of
	// EinsteinBarrier's energy advantage (paper §VI-B observation 2).
	a.stats.VMMOps++
	a.stats.RowActivations += int64(maxActive(inputs))
	return dst, nil
}

// forEachSet calls fn with the index of every set bit in the packed
// word slice, ascending. The hot accumulate loops keep this scan
// inlined by hand; the cold paths (fault reapplication, defect
// tallies) share it here.
func forEachSet(words []uint64, fn func(i int)) {
	for wi, w := range words {
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

func maxActive(inputs []*bitops.Vector) int {
	m := 0
	for _, in := range inputs {
		if pc := in.Popcount(); pc > m {
			m = pc
		}
	}
	return m
}
