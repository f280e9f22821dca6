package crossbar

import (
	"fmt"
	"math/bits"
	"math/rand"

	"einsteinbarrier/internal/bitops"
)

// Fault injection. PCM arrays ship with stuck-at defects (cells whose
// phase can no longer be switched: stuck-SET from void formation,
// stuck-RESET from delamination). BNN accelerators tolerate a modest
// defect density because a flipped weight bit shifts one popcount by at
// most one — this file lets tests and studies quantify that margin for
// both array organizations.
//
// Defects are stored as two packed bit matrices (the fault mask and the
// stuck value under the mask) and written straight into the conductance
// planes in deterministic row-major order — the per-cell-object
// implementation reapplied faults in Go map-iteration order, so the
// stuck cells' programming-variability draws differed from run to run.

// FaultModel describes a stuck-at defect population.
type FaultModel struct {
	// StuckOnRate is the fraction of cells stuck in the ON
	// (low-resistance / transparent) state.
	StuckOnRate float64
	// StuckOffRate is the fraction stuck OFF.
	StuckOffRate float64
	// Seed drives defect placement.
	Seed int64
}

// Validate checks the model.
func (f FaultModel) Validate() error {
	// Negated form: a NaN rate fails every comparison.
	if !(f.StuckOnRate >= 0 && f.StuckOffRate >= 0 && f.StuckOnRate+f.StuckOffRate <= 1) {
		return fmt.Errorf("crossbar: bad fault rates on=%g off=%g", f.StuckOnRate, f.StuckOffRate)
	}
	return nil
}

// InjectFaults overwrites a random subset of cells with stuck states.
// It returns the number of cells whose *logical* content changed (a
// stuck-ON fault under a stored 1 is harmless). Subsequent Program
// calls do not heal the defects: the fault mask is reapplied.
func (a *Array) InjectFaults(f FaultModel) (flipped int, err error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(f.Seed))
	a.stuckMask = bitops.NewMatrix(a.rows, a.cols)
	a.stuckState = bitops.NewMatrix(a.rows, a.cols)
	a.faultCount = 0
	for r := 0; r < a.rows; r++ {
		for c := 0; c < a.cols; c++ {
			u := rng.Float64()
			switch {
			case u < f.StuckOnRate:
				a.stuckMask.Set(r, c, true)
				a.stuckState.Set(r, c, true)
				a.faultCount++
			case u < f.StuckOnRate+f.StuckOffRate:
				a.stuckMask.Set(r, c, true)
				a.faultCount++
			}
		}
	}
	// flipped = |mask ∧ (programmed ⊕ stuckState)|, word-wise.
	pw, mw, sw := a.programmed.Words(), a.stuckMask.Words(), a.stuckState.Words()
	for i, m := range mw {
		flipped += bits.OnesCount64(m & (pw[i] ^ sw[i]))
	}
	a.applyFaults()
	return flipped, nil
}

// applyFaults forces every defective cell to its stuck state, writing
// the conductance/transmittance planes directly in row-major order and
// keeping the effective bit matrix in sync word-wise.
func (a *Array) applyFaults() {
	if a.stuckMask == nil {
		return
	}
	for r := 0; r < a.rows; r++ {
		mw := a.stuckMask.RowWords(r)
		sw := a.stuckState.RowWords(r)
		ew := a.effective.RowWords(r)
		base := r * a.cols
		for wi, w := range mw {
			ew[wi] = ew[wi]&^w | w&sw[wi]
		}
		forEachSet(mw, func(c int) {
			a.programCell(base+c, sw[c>>6]>>(uint(c)&63)&1 == 1)
		})
	}
}

// EffectiveBits returns the logical matrix actually stored, i.e. the
// programmed bits with stuck cells overridden — what the analog compute
// really sees. The matrix is a fresh clone on every call.
func (a *Array) EffectiveBits() *bitops.Matrix {
	return a.effective.Clone()
}

// defectsPerColumn tallies the injected defects of every physical
// column (all zeros when no faults are injected).
func (a *Array) defectsPerColumn() []int {
	perCol := make([]int, a.cols)
	if a.stuckMask == nil {
		return perCol
	}
	for r := 0; r < a.rows; r++ {
		forEachSet(a.stuckMask.RowWords(r), func(c int) {
			perCol[c]++
		})
	}
	return perCol
}

// MaxPopcountError returns, for a faulty TacitMap-style array, the
// worst-case absolute popcount deviation of any column: each stuck cell
// in a column shifts that column's count by at most one.
func (a *Array) MaxPopcountError() int {
	worst := 0
	for _, n := range a.defectsPerColumn() {
		if n > worst {
			worst = n
		}
	}
	return worst
}
