// Package bnn is the binary-neural-network framework of the
// reproduction: layer types (high-precision first/last layers, binary
// hidden layers), a model graph with reference inference, a model zoo
// matching the paper's six MlBench-scale workloads, and a
// straight-through-estimator trainer.
//
// Following the paper (§II-B) and standard BNN practice (Courbariaux et
// al., Rastegari et al.):
//
//   - hidden layers use binarized weights and activations ({-1,+1}
//     encoded as {0,1}) and compute via XNOR+Popcount (Eq. (1));
//   - the input and output layers stay in higher precision;
//   - batch-norm + sign is folded into an integer threshold per output.
//
// The reference inference path here is exact integer math; the
// crossbar-mapped paths (internal/core) must agree with it bit for bit,
// which the integration tests check.
package bnn

import (
	"fmt"
	"math"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/tensor"
)

// Layer is one stage of a model's forward pass. Only this package's
// layer types implement it: each carries a layerSpec, the geometry that
// an Architecture holds without weights.
type Layer interface {
	// Name identifies the layer for reports and compilation.
	Name() string
	// spec returns the layer's weightless geometry, which the shape
	// check and the cost models read.
	spec() layerSpec
	// cloneShared returns a copy sharing the (immutable at inference
	// time) weights but owning fresh scratch buffers, so the copy can
	// run Forward on another goroutine.
	cloneShared() Layer
	// Forward runs the reference inference path. The returned tensor is
	// owned by the layer and overwritten by its next Forward call, so
	// steady-state inference allocates nothing; Clone the result to
	// retain it. Forward is not safe for concurrent use on the same
	// layer — see Model.CloneShared for cheap per-goroutine copies.
	Forward(x *tensor.Float) *tensor.Float
}

// Binarized is implemented by layers whose arithmetic is XNOR+Popcount
// and which are therefore mapped onto crossbars.
type Binarized interface {
	Layer
	// WeightMatrix returns the n×m binary weight matrix (one weight
	// vector per row).
	WeightMatrix() *bitops.Matrix
}

// Workload describes the XNOR+Popcount work one binary layer generates
// per inference. It is the unit of currency between the model zoo and
// the compiler/simulator.
type Workload struct {
	// LayerName echoes the layer.
	LayerName string
	// N is the number of weight vectors (output neurons / kernels).
	N int
	// M is the weight-vector length in bits.
	M int
	// Positions is how many distinct input vectors the layer processes
	// per inference: 1 for a dense layer, OutH·OutW for a convolution.
	// Positions > 1 is intra-inference parallelism that WDM can batch
	// (paper §IV-A2).
	Positions int
}

// Ops returns the total XNOR+Popcount bit-operations of the workload.
func (w Workload) Ops() int64 { return int64(w.N) * int64(w.M) * int64(w.Positions) }

// binarize converts a float slice to the {0,1} encoding with sign
// (x > 0 → 1).
func binarize(xs []float64) *bitops.Vector { return bitops.FromFloats(xs) }

// --- High-precision layers -------------------------------------------

// DenseFP is a full-precision fully connected layer (used for the input
// and output layers, which BNNs keep in high resolution).
type DenseFP struct {
	LayerName string
	// W is out×in, B has length out.
	W *tensor.Float
	B []float64
	// ReLU applies max(0,·) when true (hidden FP layers); output layers
	// leave logits linear.
	ReLU bool

	out   *tensor.Float // reusable output buffer
	batch *denseFPBatch // batch-major lanes scratch (batch.go)
}

func (d *DenseFP) cloneShared() Layer {
	c := *d
	c.out, c.batch = nil, nil
	return &c
}

// Name implements Layer.
func (d *DenseFP) Name() string { return d.LayerName }

// inDim and outDim report the weight dimensions.
func (d *DenseFP) inDim() int  { return d.W.Dim(1) }
func (d *DenseFP) outDim() int { return d.W.Dim(0) }

func (d *DenseFP) spec() layerSpec {
	return layerSpec{kind: kindDenseFP, name: d.LayerName, in: d.inDim(), out: d.outDim(), relu: d.ReLU}
}

// Forward implements Layer.
func (d *DenseFP) Forward(x *tensor.Float) *tensor.Float {
	in, out := d.inDim(), d.outDim()
	if x.Size() != in {
		panic(fmt.Sprintf("bnn: %s: input size %d, want %d", d.LayerName, x.Size(), in))
	}
	if d.out == nil {
		d.out = tensor.NewFloat(out)
	}
	y := d.out
	xd, wd := x.Data(), d.W.Data()
	for o := 0; o < out; o++ {
		s := d.B[o]
		row := wd[o*in : (o+1)*in]
		for i, v := range xd {
			s += row[i] * v
		}
		if d.ReLU && s < 0 {
			s = 0
		}
		y.Data()[o] = s
	}
	return y
}

// ConvFP is a full-precision convolution (the high-resolution first
// layer of the CNN workloads).
type ConvFP struct {
	LayerName string
	Geom      tensor.ConvGeom
	// K is outC×patchLen, B has length outC.
	OutC int
	K    *tensor.Float
	B    []float64

	cols *tensor.Float // reusable im2col buffer
	out  *tensor.Float // reusable output buffer
}

func (c *ConvFP) cloneShared() Layer {
	cc := *c
	cc.cols, cc.out = nil, nil
	return &cc
}

// Name implements Layer.
func (c *ConvFP) Name() string { return c.LayerName }

func (c *ConvFP) spec() layerSpec {
	return layerSpec{kind: kindConvFP, name: c.LayerName, out: c.OutC, geom: c.Geom}
}

// Forward implements Layer.
func (c *ConvFP) Forward(x *tensor.Float) *tensor.Float {
	if c.out == nil {
		c.cols = tensor.NewFloat(c.Geom.Positions(), c.Geom.PatchLen())
		c.out = tensor.NewFloat(c.OutC, c.Geom.OutH(), c.Geom.OutW())
	}
	cols := c.Geom.Im2ColInto(x, c.cols)
	pl := c.Geom.PatchLen()
	y := c.out
	kd := c.K.Data()
	for o := 0; o < c.OutC; o++ {
		row := kd[o*pl : (o+1)*pl]
		for p := 0; p < c.Geom.Positions(); p++ {
			s := c.B[o]
			patch := cols.Data()[p*pl : (p+1)*pl]
			for i, v := range patch {
				s += row[i] * v
			}
			y.Data()[o*c.Geom.Positions()+p] = s
		}
	}
	return y
}

// --- Binary layers ----------------------------------------------------

// BinaryDense is a binarized fully connected hidden layer: weights are
// bits, the input is binarized with sign, the dot product is Eq. (1),
// and batch-norm + sign folds into per-output integer thresholds:
// output_o = +1 iff dot_o ≥ Thresh[o].
type BinaryDense struct {
	LayerName string
	// W is out×in bits.
	W *bitops.Matrix
	// Thresh has length out; compare against the bipolar dot product.
	Thresh []int

	// Reusable scratch: binarized input, popcount accumulator, output.
	xb    *bitops.Vector
	dots  []int
	out   *tensor.Float
	batch *binaryDenseBatch // batch-major bit-parallel scratch (batch.go)
}

func (b *BinaryDense) cloneShared() Layer {
	c := *b
	c.xb, c.dots, c.out, c.batch = nil, nil, nil, nil
	return &c
}

// Name implements Layer.
func (b *BinaryDense) Name() string { return b.LayerName }

func (b *BinaryDense) spec() layerSpec {
	return layerSpec{kind: kindBinaryDense, name: b.LayerName, in: b.W.Cols(), out: b.W.Rows()}
}

// WeightMatrix implements Binarized.
func (b *BinaryDense) WeightMatrix() *bitops.Matrix { return b.W }

// Forward implements Layer; output entries are ±1. Steady-state calls
// reuse the layer's scratch buffers and allocate nothing.
func (b *BinaryDense) Forward(x *tensor.Float) *tensor.Float {
	if x.Size() != b.W.Cols() {
		panic(fmt.Sprintf("bnn: %s: input size %d, want %d", b.LayerName, x.Size(), b.W.Cols()))
	}
	if b.out == nil {
		b.xb = bitops.NewVector(b.W.Cols())
		b.dots = make([]int, b.W.Rows())
		b.out = tensor.NewFloat(b.W.Rows())
	}
	b.xb.SetFromFloats(x.Data())
	b.W.BipolarMatVecInto(b.xb, b.dots)
	y := b.out.Data()
	for o, d := range b.dots {
		if d >= b.Thresh[o] {
			y[o] = 1
		} else {
			y[o] = -1
		}
	}
	return b.out
}

// BinaryConv2D is a binarized convolution layer: binary kernels over
// binarized activations via im2col + XNOR+Popcount, thresholded per
// output channel.
type BinaryConv2D struct {
	LayerName string
	Geom      tensor.ConvGeom
	// K is outC×patchLen bits.
	OutC int
	K    *bitops.Matrix
	// Thresh has length outC.
	Thresh []int

	// Reusable scratch: im2col buffer, one binarized patch, popcounts,
	// output — so Forward allocates nothing per patch (or at all) in
	// steady state.
	cols  *tensor.Float
	xb    *bitops.Vector
	dots  []int
	out   *tensor.Float
	batch *binaryConvBatch // batch-major bit-parallel scratch (batch.go)
}

func (b *BinaryConv2D) cloneShared() Layer {
	c := *b
	c.cols, c.xb, c.dots, c.out, c.batch = nil, nil, nil, nil, nil
	return &c
}

// Name implements Layer.
func (b *BinaryConv2D) Name() string { return b.LayerName }

func (b *BinaryConv2D) spec() layerSpec {
	return layerSpec{kind: kindBinaryConv, name: b.LayerName, out: b.OutC, geom: b.Geom}
}

// WeightMatrix implements Binarized.
func (b *BinaryConv2D) WeightMatrix() *bitops.Matrix { return b.K }

// Forward implements Layer; output entries are ±1. The im2col buffer,
// the binarized patch vector, and the popcount accumulator are all
// layer-owned scratch, so steady-state calls allocate nothing per patch.
func (b *BinaryConv2D) Forward(x *tensor.Float) *tensor.Float {
	pl := b.Geom.PatchLen()
	pos := b.Geom.Positions()
	if b.out == nil {
		b.cols = tensor.NewFloat(pos, pl)
		b.xb = bitops.NewVector(pl)
		b.dots = make([]int, b.K.Rows())
		b.out = tensor.NewFloat(b.OutC, b.Geom.OutH(), b.Geom.OutW())
	}
	cols := b.Geom.Im2ColInto(x, b.cols).Data()
	y := b.out.Data()
	for p := 0; p < pos; p++ {
		b.xb.SetFromFloats(cols[p*pl : (p+1)*pl])
		b.K.BipolarMatVecInto(b.xb, b.dots)
		for o := 0; o < b.OutC; o++ {
			v := -1.0
			if b.dots[o] >= b.Thresh[o] {
				v = 1
			}
			y[o*pos+p] = v
		}
	}
	return b.out
}

// PatchVectors returns the binarized im2col patches of x — the exact
// input vectors a crossbar-mapped version of this layer consumes.
func (b *BinaryConv2D) PatchVectors(x *tensor.Float) []*bitops.Vector {
	cols := b.Geom.Im2Col(x)
	pl := b.Geom.PatchLen()
	out := make([]*bitops.Vector, b.Geom.Positions())
	for p := range out {
		out[p] = binarize(cols.Data()[p*pl : (p+1)*pl])
	}
	return out
}

// --- Shape/utility layers ---------------------------------------------

// Sign binarizes a float tensor to ±1 (the activation binarization
// between the FP input layer and the first binary layer).
type Sign struct {
	LayerName string

	out   *tensor.Float // reusable output buffer
	batch *signBatch    // batch-major scratch (batch.go)
}

func (s *Sign) cloneShared() Layer {
	c := *s
	c.out, c.batch = nil, nil
	return &c
}

// Name implements Layer.
func (s *Sign) Name() string { return s.LayerName }

func (s *Sign) spec() layerSpec { return layerSpec{kind: kindSign, name: s.LayerName} }

// Forward implements Layer.
func (s *Sign) Forward(x *tensor.Float) *tensor.Float {
	if s.out == nil || !s.out.SameShape(x) {
		s.out = tensor.NewFloat(x.Shape()...)
	}
	y := s.out.Data()
	for i, v := range x.Data() {
		if v > 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	return s.out
}

// MaxPool2D pools CHW tensors with a square window; on ±1 activations
// this is an OR reduction.
type MaxPool2D struct {
	LayerName string
	Size      int

	out   *tensor.Float // reusable output buffer
	batch *poolBatch    // batch-major scratch (batch.go)
}

func (m *MaxPool2D) cloneShared() Layer {
	c := *m
	c.out, c.batch = nil, nil
	return &c
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.LayerName }

func (m *MaxPool2D) spec() layerSpec {
	return layerSpec{kind: kindMaxPool, name: m.LayerName, size: m.Size}
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Float) *tensor.Float {
	if x.Dims() != 3 {
		panic(fmt.Sprintf("bnn: %s: pooling needs CHW input, got %v", m.LayerName, x.Shape()))
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := h/m.Size, w/m.Size
	if m.out == nil || m.out.Dim(0) != c || m.out.Dim(1) != oh || m.out.Dim(2) != ow {
		m.out = tensor.NewFloat(c, oh, ow)
	}
	xd, yd := x.Data(), m.out.Data()
	for ci := 0; ci < c; ci++ {
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				best := math.Inf(-1)
				for di := 0; di < m.Size; di++ {
					rowBase := (ci*h + i*m.Size + di) * w
					for dj := 0; dj < m.Size; dj++ {
						if v := xd[rowBase+j*m.Size+dj]; v > best {
							best = v
						}
					}
				}
				yd[(ci*oh+i)*ow+j] = best
			}
		}
	}
	return m.out
}

// Flatten reshapes any tensor to rank 1.
type Flatten struct {
	LayerName string

	out   tensor.Float  // reusable alias view of the input
	batch *flattenBatch // batch-major scratch (batch.go)
}

func (f *Flatten) cloneShared() Layer {
	return &Flatten{LayerName: f.LayerName}
}

// Name implements Layer.
func (f *Flatten) Name() string { return f.LayerName }

func (f *Flatten) spec() layerSpec { return layerSpec{kind: kindFlatten, name: f.LayerName} }

// Forward implements Layer. The result is a reshaped alias of x's
// data, built without copying or allocating.
func (f *Flatten) Forward(x *tensor.Float) *tensor.Float {
	return f.out.Alias(x, x.Size())
}
