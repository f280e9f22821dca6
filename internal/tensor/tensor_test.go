package tensor

import (
	"math/rand"
	"testing"
)

func TestNewFloatShapeSize(t *testing.T) {
	x := NewFloat(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d", x.Size())
	}
	s := x.Shape()
	if len(s) != 3 || s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Fatalf("Shape = %v", s)
	}
	// Shape must be a copy.
	s[0] = 99
	if x.Shape()[0] != 2 {
		t.Fatal("Shape leaked internal slice")
	}
}

func TestNewFloatBadDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFloat(2, 0)
}

func TestAtSetRowMajor(t *testing.T) {
	x := NewFloat(2, 3)
	x.Set(7, 1, 2)
	if x.data[x.offset(1, 2)] != 7 {
		t.Fatal("At/Set broken")
	}
	if x.Data()[5] != 7 { // row-major: 1*3+2
		t.Fatal("layout not row-major")
	}
}

func TestAtPanics(t *testing.T) {
	x := NewFloat(2, 3)
	for _, idx := range [][]int{{2, 0}, {0, 3}, {-1, 0}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", idx)
				}
			}()
			_ = x.data[x.offset(idx...)]
		}()
	}
}

func TestFromSliceAndReshape(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	y := x.Reshape(3, 2)
	if y.data[y.offset(2, 1)] != 6 {
		t.Fatal("reshape broke layout")
	}
	y.Set(42, 0, 0)
	if x.data[x.offset(0, 0)] != 42 {
		t.Fatal("Reshape should share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on size mismatch")
		}
	}()
	x.Reshape(5)
}

func TestCloneIndependent(t *testing.T) {
	x := NewFloat(4)
	c := x.Clone()
	c.Set(1, 0)
	if x.data[x.offset(0)] != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestFillArgMax(t *testing.T) {
	x := NewFloat(5)
	for i := range x.data {
		x.data[i] = -2
	}
	x.Set(3, 2)
	if x.ArgMax() != 2 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 3, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []ConvGeom{
		{InC: 0, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 8, InW: 8, KH: 0, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1}, // empty out
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestConvGeomDims(t *testing.T) {
	g := ConvGeom{InC: 3, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 32 || g.OutW() != 32 {
		t.Fatalf("same-pad output %dx%d", g.OutH(), g.OutW())
	}
	if g.PatchLen() != 27 || g.Positions() != 1024 {
		t.Fatalf("patch %d positions %d", g.PatchLen(), g.Positions())
	}
	g2 := ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1}
	if g2.OutH() != 24 || g2.OutW() != 24 {
		t.Fatalf("valid-pad output %dx%d", g2.OutH(), g2.OutW())
	}
}

func TestIm2ColManual(t *testing.T) {
	// 1×3×3 input, 2×2 kernel, stride 1, no pad → 4 patches of 4.
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	cols := g.Im2Col(x)
	want := [][]float64{
		{1, 2, 4, 5}, {2, 3, 5, 6}, {4, 5, 7, 8}, {5, 6, 8, 9},
	}
	for p := range want {
		for c := range want[p] {
			if cols.data[cols.offset(p, c)] != want[p][c] {
				t.Fatalf("patch %d col %d = %g, want %g", p, c, cols.data[cols.offset(p, c)], want[p][c])
			}
		}
	}
}

func TestIm2ColPaddingZero(t *testing.T) {
	x := NewFloat(1, 2, 2)
	for i := range x.data {
		x.data[i] = 1
	}
	g := ConvGeom{InC: 1, InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := g.Im2Col(x)
	// First patch (centered at 0,0): corners outside → zeros.
	if cols.data[cols.offset(0, 0)] != 0 {
		t.Fatal("padding should read zero")
	}
	if cols.data[cols.offset(0, 4)] != 1 { // center = x[0,0]
		t.Fatal("center element wrong")
	}
}

func TestIm2ColConvEquivalence(t *testing.T) {
	// A float convolution done via im2col + dot must equal the direct
	// nested-loop convolution.
	rng := rand.New(rand.NewSource(6))
	g := ConvGeom{InC: 2, InH: 6, InW: 7, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 0}
	x := NewFloat(g.InC, g.InH, g.InW)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	kernel := make([]float64, g.PatchLen())
	for i := range kernel {
		kernel[i] = rng.NormFloat64()
	}
	cols := g.Im2Col(x)
	pos := 0
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < g.OutW(); ow++ {
			direct := 0.0
			k := 0
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.KH; kh++ {
					for kw := 0; kw < g.KW; kw++ {
						ih := oh*g.StrideH + kh - g.PadH
						iw := ow*g.StrideW + kw - g.PadW
						if ih >= 0 && ih < g.InH && iw >= 0 && iw < g.InW {
							direct += kernel[k] * x.data[x.offset(c, ih, iw)]
						}
						k++
					}
				}
			}
			viaCols := 0.0
			for c := 0; c < g.PatchLen(); c++ {
				viaCols += kernel[c] * cols.data[cols.offset(pos, c)]
			}
			if diff := direct - viaCols; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("pos %d: direct %g vs im2col %g", pos, direct, viaCols)
			}
			pos++
		}
	}
}

func TestIm2ColShapeMismatchPanics(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Im2Col(NewFloat(2, 3, 3))
}
