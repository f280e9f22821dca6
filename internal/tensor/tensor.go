// Package tensor provides the small dense-tensor substrate the BNN
// framework is built on: float tensors with shape bookkeeping, and the
// im2col transform that turns convolutions into the matrix-vector form
// both crossbar mappings consume.
package tensor

import (
	"fmt"
	"math"
)

// Float is a dense row-major float64 tensor.
type Float struct {
	shape []int
	data  []float64
}

// NewFloat allocates a zero tensor with the given shape. Panics on a
// non-positive dimension.
func NewFloat(shape ...int) *Float {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Float{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data (not copied) with the given shape; the element
// count must match.
func FromSlice(data []float64, shape ...int) *Float {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v (want %d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Float{shape: s, data: data}
}

// Shape returns a copy of the tensor shape.
func (t *Float) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Size returns the total element count.
func (t *Float) Size() int { return len(t.data) }

// Dims returns the rank of the tensor without copying the shape.
func (t *Float) Dims() int { return len(t.shape) }

// Dim returns the size of axis i without copying the shape.
func (t *Float) Dim(i int) int { return t.shape[i] }

// SameShape reports whether t and u have identical shapes.
func (t *Float) SameShape(u *Float) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i, d := range t.shape {
		if u.shape[i] != d {
			return false
		}
	}
	return true
}

// Data exposes the backing slice (row-major).
func (t *Float) Data() []float64 { return t.data }

// offset computes the flat index of the given coordinates.
func (t *Float) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) at axis %d", x, t.shape[i], i))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Set stores v at the coordinates.
func (t *Float) Set(v float64, idx ...int) { t.data[t.offset(idx...)] = v }

// Clone deep-copies the tensor.
func (t *Float) Clone() *Float {
	c := NewFloat(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view with a new shape of equal size.
func (t *Float) Reshape(shape ...int) *Float {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.shape, len(t.data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Float{shape: s, data: t.data}
}

// Alias points t at src's backing data with the given shape, without
// copying; the element count must match src. It reuses t's shape slice
// when capacity allows, so steady-state calls allocate nothing. The
// zero value of Float is a valid Alias destination.
func (t *Float) Alias(src *Float, shape ...int) *Float {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(src.data) {
		panic(fmt.Sprintf("tensor: cannot alias %d elements as %v", len(src.data), shape))
	}
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append([]int(nil), shape...)
	}
	t.data = src.data
	return t
}

// ArgMax returns the flat index of the maximum element (first on ties).
func (t *Float) ArgMax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ConvGeom describes a 2-D convolution geometry over CHW tensors.
type ConvGeom struct {
	InC, InH, InW    int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
}

// Validate checks the geometry.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC < 1 || g.InH < 1 || g.InW < 1:
		return fmt.Errorf("tensor: bad input dims %dx%dx%d", g.InC, g.InH, g.InW)
	case g.KH < 1 || g.KW < 1:
		return fmt.Errorf("tensor: bad kernel %dx%d", g.KH, g.KW)
	case g.StrideH < 1 || g.StrideW < 1:
		return fmt.Errorf("tensor: bad stride %dx%d", g.StrideH, g.StrideW)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: negative padding")
	}
	if g.OutH() < 1 || g.OutW() < 1 {
		return fmt.Errorf("tensor: empty output %dx%d", g.OutH(), g.OutW())
	}
	return nil
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// PatchLen returns the im2col patch length InC·KH·KW — the "vector
// length" m of the XNOR+Popcount workload a conv layer generates.
func (g ConvGeom) PatchLen() int { return g.InC * g.KH * g.KW }

// Positions returns OutH·OutW — how many patch vectors one input image
// yields, i.e. the WDM batching opportunity of the layer.
func (g ConvGeom) Positions() int { return g.OutH() * g.OutW() }

// Im2Col extracts all patches of x (shape C×H×W) as a Positions ×
// PatchLen row-major matrix. Padding reads as zero.
func (g ConvGeom) Im2Col(x *Float) *Float { return g.Im2ColInto(x, nil) }

// Im2ColInto is the allocation-free form of Im2Col: it writes the patch
// matrix into dst, which must hold Positions·PatchLen elements (nil
// allocates a fresh Positions × PatchLen tensor).
func (g ConvGeom) Im2ColInto(x, dst *Float) *Float {
	if len(x.shape) != 3 || x.shape[0] != g.InC || x.shape[1] != g.InH || x.shape[2] != g.InW {
		panic(fmt.Sprintf("tensor: im2col input %v does not match geom %dx%dx%d",
			x.shape, g.InC, g.InH, g.InW))
	}
	if dst == nil {
		dst = NewFloat(g.Positions(), g.PatchLen())
	} else if dst.Size() != g.Positions()*g.PatchLen() {
		panic(fmt.Sprintf("tensor: im2col dst has %d elements, want %d",
			dst.Size(), g.Positions()*g.PatchLen()))
	}
	xd, od := x.data, dst.data
	i := 0
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < g.OutW(); ow++ {
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.StrideH + kh - g.PadH
					if ih < 0 || ih >= g.InH {
						for kw := 0; kw < g.KW; kw++ {
							od[i] = 0
							i++
						}
						continue
					}
					rowBase := (c*g.InH + ih) * g.InW
					for kw := 0; kw < g.KW; kw++ {
						iw := ow*g.StrideW + kw - g.PadW
						if iw >= 0 && iw < g.InW {
							od[i] = xd[rowBase+iw]
						} else {
							od[i] = 0
						}
						i++
					}
				}
			}
		}
	}
	return dst
}
