package bitops

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Intn(2) == 1 {
				m.Set(r, c, true)
			}
		}
	}
	return m
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 5)
	if m.Rows() != 3 || m.Cols() != 5 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 4, true)
	if !m.Row(1).Get(4) || m.Row(0).Get(4) {
		t.Fatal("Set/Get broken")
	}
	col := m.Col(4)
	if col.String() != "010" {
		t.Fatalf("Col = %s", col.String())
	}
}

func TestMatrixFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	MatrixFromRows([]*Vector{NewVector(3), NewVector(4)})
}

func TestMatrixFromRowsClones(t *testing.T) {
	r := NewVector(4)
	m := MatrixFromRows([]*Vector{r})
	r.Set(0)
	if m.Row(0).Get(0) {
		t.Fatal("MatrixFromRows did not clone")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m := randomMatrix(rng, 1+rng.Intn(20), 1+rng.Intn(20))
		tt := m.Transpose().Transpose()
		for r := 0; r < m.Rows(); r++ {
			if !tt.Row(r).Equal(m.Row(r)) {
				t.Fatal("transpose involution failed")
			}
		}
	}
}

func TestTransposeEntries(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 2, true)
	m.Set(1, 0, true)
	tr := m.Transpose()
	if !tr.Row(2).Get(0) || !tr.Row(0).Get(1) || tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatal("transpose entries wrong")
	}
}

func TestXnorPopcountAllMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, 17, 40)
	x := randomVector(rng, 40)
	all := m.XnorPopcountAllInto(x, nil)
	for r := 0; r < m.Rows(); r++ {
		if all[r] != XnorPopcount(x, m.Row(r)) {
			t.Fatalf("row %d mismatch", r)
		}
	}
}

func TestBipolarMatVecProperty(t *testing.T) {
	// For any binary matrix and input, BipolarMatVec must equal the naive
	// {-1,+1} matrix-vector product.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(40)
		m := randomMatrix(rng, rows, cols)
		x := randomVector(rng, cols)
		got := m.BipolarMatVec(x)
		xb := x.Bipolar()
		for r := 0; r < rows; r++ {
			wb := m.Row(r).Bipolar()
			want := 0
			for c := 0; c < cols; c++ {
				want += xb[c] * wb[c]
			}
			if got[r] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestXnorPopcountAllSizeMismatchPanics(t *testing.T) {
	m := NewMatrix(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.XnorPopcountAllInto(NewVector(4), nil)
}

func TestMatrixClone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, 5, 9)
	c := m.Clone()
	c.Set(0, 0, !m.Row(0).Get(0))
	if c.Row(0).Get(0) == m.Row(0).Get(0) {
		t.Fatal("clone shares storage")
	}
}
