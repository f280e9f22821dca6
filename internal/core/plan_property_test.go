package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Plan invariants, checked over random layer and array shapes. These
// are the closed-form counts the compiler and the cross-validation
// tests rely on; an off-by-one here skews every figure.

func TestTacitPlanInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4000)
		m := 1 + rng.Intn(4000)
		rows := 2 * (1 + rng.Intn(512)) // even
		cols := 1 + rng.Intn(512)
		p, err := PlanTacit(n, m, rows, cols)
		if err != nil {
			return false
		}
		// Tiles cover the layer.
		if p.RowTiles*p.BitsPerTile < m {
			return false
		}
		if p.ColTiles*p.ArrayCols < n {
			return false
		}
		// No overshoot by a whole tile.
		if (p.RowTiles-1)*p.BitsPerTile >= m || (p.ColTiles-1)*p.ArrayCols >= n {
			return false
		}
		// The stored cells ([w;¬w] per bit) fit the allocated arrays.
		if int64(p.Tiles())*int64(rows)*int64(cols) < 2*int64(n)*int64(m) {
			return false
		}
		// ADC conversions: every weight vector converts once per row tile.
		if p.ADCConversionsPerInput() != p.RowTiles*n {
			return false
		}
		// DACs: each row tile drives 2×(its bits) rows per column tile.
		if p.DACConversionsPerInput() != 2*m*p.ColTiles {
			return false
		}
		// Critical path is always a single step (the mapping's point).
		return p.SerialStepsPerInput() == 1 && p.SingleArrayStepsPerInput() == p.Tiles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestCustPlanInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4000)
		m := 1 + rng.Intn(4000)
		rows := 1 + rng.Intn(512)
		cols := 1 + rng.Intn(512)
		p, err := PlanCust(n, m, rows, cols)
		if err != nil {
			return false
		}
		if p.RowTiles*p.ArrayRows < n || p.ColTiles*p.LogicalCols < m {
			return false
		}
		if (p.RowTiles-1)*p.ArrayRows >= n || (p.ColTiles-1)*p.LogicalCols >= m {
			return false
		}
		// Row activations: every weight vector visits every column tile.
		if p.RowActivationsPerInput() != n*p.ColTiles {
			return false
		}
		// The serial critical path equals the tallest tile.
		want := n
		if want > rows {
			want = rows
		}
		return p.SerialStepsPerInput() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestSpeedupBoundProperty pins the §III bound: TacitMap's advantage on
// one array never exceeds min(n, rows) — "up to n×".
func TestSpeedupBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		m := 1 + rng.Intn(2000)
		rows := 2 * (1 + rng.Intn(256))
		cols := 1 + rng.Intn(256)
		tp, err := PlanTacit(n, m, rows, cols)
		if err != nil {
			return false
		}
		cp, err := PlanCust(n, m, rows, cols/2+1)
		if err != nil {
			return false
		}
		s := float64(cp.SerialStepsPerInput()) / float64(tp.SerialStepsPerInput())
		bound := float64(n)
		if float64(rows) < bound {
			bound = float64(rows)
		}
		return s >= 1 && s <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
