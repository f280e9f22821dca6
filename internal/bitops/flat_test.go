package bitops

import (
	"math/rand"
	"testing"
)

// naiveTranspose is the bit-by-bit reference the word-wise Transpose
// must match.
func naiveTranspose(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols(), m.Rows())
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if m.Row(r).Get(c) {
				t.Set(c, r, true)
			}
		}
	}
	return t
}

func matricesEqual(a, b *Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		if !a.Row(r).Equal(b.Row(r)) {
			return false
		}
	}
	return true
}

func TestTransposeWordWiseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dims := [][2]int{
		{1, 1}, {1, 64}, {64, 1}, {64, 64}, {63, 65}, {65, 63},
		{7, 200}, {200, 7}, {128, 128}, {100, 300}, {129, 257},
	}
	for _, d := range dims {
		m := randomMatrix(rng, d[0], d[1])
		if !matricesEqual(m.Transpose(), naiveTranspose(m)) {
			t.Errorf("Transpose mismatch for %dx%d", d[0], d[1])
		}
	}
}

func TestColWordWiseMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range [][2]int{{1, 1}, {65, 70}, {130, 3}, {64, 128}} {
		m := randomMatrix(rng, d[0], d[1])
		for c := 0; c < m.Cols(); c++ {
			col := m.Col(c)
			for r := 0; r < m.Rows(); r++ {
				if col.Get(r) != m.Row(r).Get(c) {
					t.Fatalf("%dx%d: Col(%d) bit %d mismatch", d[0], d[1], c, r)
				}
			}
		}
	}
}

func TestRowViewSharesStorage(t *testing.T) {
	m := NewMatrix(3, 70)
	m.Row(1).Set(69)
	if !m.Row(1).Get(69) {
		t.Fatal("Row view mutation not visible in matrix")
	}
	if m.Row(0).Get(69) || m.Row(2).Get(69) {
		t.Fatal("Row view mutation leaked into another row")
	}
}

func TestXnorPopcountAllIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomMatrix(rng, 33, 130)
	x := randomVector(rng, 130)
	want := m.XnorPopcountAllInto(x, nil)
	dst := make([]int, m.Rows())
	got := m.XnorPopcountAllInto(x, dst)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestXnorPopcountAllStride16MatchesPerRow pins the specialized
// stride-16 kernel (cols in (960, 1024]) against the per-row reference,
// including a column count that is not a multiple of 64.
func TestXnorPopcountAllStride16MatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cols := range []int{1024, 1000, 961} {
		m := randomMatrix(rng, 37, cols)
		if m.stride != 16 {
			t.Fatalf("cols=%d: stride %d, want 16", cols, m.stride)
		}
		x := randomVector(rng, cols)
		got := m.XnorPopcountAllInto(x, nil)
		for r := 0; r < m.Rows(); r++ {
			if want := XnorPopcount(x, m.Row(r)); got[r] != want {
				t.Fatalf("cols=%d row %d: got %d, want %d", cols, r, got[r], want)
			}
		}
	}
}

func TestBipolarMatVecIntoMatchesAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := randomMatrix(rng, 20, 99)
	x := randomVector(rng, 99)
	want := m.BipolarMatVec(x)
	dst := make([]int, m.Rows())
	m.BipolarMatVecInto(x, dst)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("row %d: got %d, want %d", i, dst[i], want[i])
		}
	}
}

// TestXnorPopcountAllIntoZeroAllocs is the steady-state allocation
// regression test for the fused flat-storage kernel.
func TestXnorPopcountAllIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := randomMatrix(rng, 256, 1024)
	x := randomVector(rng, 1024)
	dst := make([]int, m.Rows())
	if avg := testing.AllocsPerRun(100, func() {
		m.XnorPopcountAllInto(x, dst)
	}); avg != 0 {
		t.Fatalf("XnorPopcountAllInto allocates %.1f objects per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		m.BipolarMatVecInto(x, dst)
	}); avg != 0 {
		t.Fatalf("BipolarMatVecInto allocates %.1f objects per run, want 0", avg)
	}
}

func TestSetFromFloatsMatchesFromFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want := FromFloats(xs)
		v := NewVector(n)
		for i := 0; i < n; i++ { // pre-dirty so stale bits would be caught
			v.Set(i)
		}
		if !v.SetFromFloats(xs).Equal(want) {
			t.Fatalf("n=%d: SetFromFloats != FromFloats", n)
		}
	}
}

func TestIntoOperatorsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a, b := randomVector(rng, 133), randomVector(rng, 133)
	dst := NewVector(133)
	if !a.XnorInto(b, dst).Equal(a.Xnor(b)) {
		t.Fatal("XnorInto mismatch")
	}
	if !a.XorInto(b, dst).Equal(a.Xor(b)) {
		t.Fatal("XorInto mismatch")
	}
	if !a.AndInto(b, dst).Equal(a.And(b)) {
		t.Fatal("AndInto mismatch")
	}
	if !a.OrInto(b, dst).Equal(a.Or(b)) {
		t.Fatal("OrInto mismatch")
	}
	if !a.NotInto(dst).Equal(a.Not()) {
		t.Fatal("NotInto mismatch")
	}
	dst2 := NewVector(133)
	dst2.CopyFrom(a)
	if !dst2.Equal(a) {
		t.Fatal("CopyFrom mismatch")
	}
	dst2.Zero()
	if dst2.Popcount() != 0 {
		t.Fatal("Zero left bits set")
	}
}

func BenchmarkTransposeWordWise(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	m := randomMatrix(rng, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}
