package bnn

import (
	"fmt"
	"math"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/tensor"
)

// Batch-major bit-parallel inference: Model.InferBatchBits carries up
// to LaneWidth samples through the stack side by side. Activations move
// between layers as batchAct blocks in one of two domains:
//
//   - bit domain (±1 activations): a bitops.BitBatch, one uint64 word
//     per feature with bit s = sample s, so the binary layers run their
//     fused batch kernels and re-binarize without per-sample round
//     trips;
//   - float domain: a lanedFloat, feature f of sample s at
//     data[f*LaneWidth+s], so a dense FP layer is one whole-layer
//     kernel over 8 output neurons × 8 lanes at a time
//     (tensor.DenseLanesInto).
//
// Domain conversions are exact (±1 floats ↔ bits), and every kernel
// performs the per-sample operation sequence lane by lane, so batch
// results are bit-identical to Model.Infer — pinned across the zoo at
// every lane-group boundary by TestInferBatchBitsMatchesInfer.
//
// Remainder policy: a batch never exceeds LaneWidth, and a ragged batch
// pays for its live lanes only. The bit domain keeps the canonical
// lane-mask invariant (dead lanes zero). The float domain works on the
// span, the live count rounded up to 8 (tensor.LaneSpan, one 512-bit
// register): bias, ReLU, pooling, ±1 expansion and the dense kernel
// touch lanes below the span and nothing above it. Dead lanes inside
// the span are computed from whatever stale values they hold; dead
// lanes above it keep values from an earlier, wider batch. No consumer
// reads either — the output de-transpose and the bit packer read live
// lanes only. A 1-lane batch costs one lane group, about one
// per-sample pass on the MLPs, so the float kernels need no crossover
// to a narrower path.
//
// Scratch ownership: every layer owns its batch buffers (nil'd by
// cloneShared, like the per-sample scratch), the model owns the
// input/output staging and the fan-out scratch for layers without a
// native batch path, and the returned logits are model-owned and
// overwritten by the next call.

// LaneWidth is the maximum batch size of InferBatchBits — the 64
// sample lanes of one machine word.
const LaneWidth = tensor.LaneWidth

// lanedFloat is a batch-major float activation block: feature f of
// lane s lives at data[f*LaneWidth+s]. The lane stride is always
// LaneWidth regardless of the live lane count; float loops cover the
// span (live lanes rounded up to 8), and dead lanes carry junk that is
// never read.
type lanedFloat struct {
	features int
	data     []float64
}

// ensure resizes to the feature count, reusing storage when possible.
func (l *lanedFloat) ensure(features int) *lanedFloat {
	need := features * LaneWidth
	if cap(l.data) < need {
		l.data = make([]float64, need)
	} else {
		l.data = l.data[:need]
	}
	l.features = features
	return l
}

// batchAct is the activation block flowing between batch stages:
// logical per-sample shape, live lane count, and exactly one of fl
// (float domain) or bb (bit domain, bit 1 = +1, bit 0 = −1).
type batchAct struct {
	shape []int
	lanes int
	fl    *lanedFloat
	bb    *bitops.BitBatch
}

// span is the float-domain lane extent: lanes rounded up to 8.
func (a *batchAct) span() int { return tensor.LaneSpan(a.lanes) }

func (a *batchAct) set(shape []int, lanes int, fl *lanedFloat, bb *bitops.BitBatch) *batchAct {
	a.shape, a.lanes, a.fl, a.bb = shape, lanes, fl, bb
	return a
}

// floatLanes returns the activation in float form, expanding a
// bit-domain block to ±1 lanes below the span into scr when needed.
func (a *batchAct) floatLanes(scr *lanedFloat) *lanedFloat {
	if a.fl != nil {
		return a.fl
	}
	out := scr.ensure(a.bb.Features())
	span := a.span()
	for f, word := range a.bb.Words() {
		d := out.data[f*LaneWidth : f*LaneWidth+span]
		for s := range d {
			if word>>uint(s)&1 == 1 {
				d[s] = 1
			} else {
				d[s] = -1
			}
		}
	}
	return out
}

// bitLanes returns the activation in bit form, packing float lanes
// with the sign rule (x > 0 → 1) into *scr when needed — the batch
// counterpart of Vector.SetFromFloats. Only live lanes are packed, so
// the result is canonical.
func (a *batchAct) bitLanes(scr **bitops.BitBatch) *bitops.BitBatch {
	if a.bb != nil {
		return a.bb
	}
	bb := bitops.EnsureBitBatch(*scr, a.fl.features, a.lanes)
	*scr = bb
	w := bb.Words()
	for f := 0; f < a.fl.features; f++ {
		d := a.fl.data[f*LaneWidth : f*LaneWidth+LaneWidth]
		var word uint64
		for s := 0; s < a.lanes; s++ {
			if d[s] > 0 {
				word |= 1 << uint(s)
			}
		}
		w[f] = word
	}
	return bb
}

// batchForwarder is implemented by layers with a native batch path;
// layers without one fan their lanes over the per-sample Forward (see
// fanScratch.fan). The returned block is layer-owned and overwritten
// by the next forwardBatch call.
type batchForwarder interface {
	forwardBatch(x *batchAct) *batchAct
}

// --- DenseFP ----------------------------------------------------------

type denseFPBatch struct {
	in       lanedFloat // de-transposed ±1 lanes when the input is bits
	out      lanedFloat
	outShape []int
	act      batchAct
}

// forwardBatch runs the dense layer on the span: bias broadcast, one
// whole-layer multiply-add kernel, then ReLU — the scalar Forward loop
// lane-replicated, so each lane is bit-identical to it.
func (d *DenseFP) forwardBatch(x *batchAct) *batchAct {
	in, out := d.inDim(), d.outDim()
	if sizeOf(x.shape) != in {
		panic(fmt.Sprintf("bnn: %s: batch input size %d, want %d", d.LayerName, sizeOf(x.shape), in))
	}
	if d.batch == nil {
		d.batch = &denseFPBatch{outShape: []int{out}}
	}
	bx := x.floatLanes(&d.batch.in)
	y := d.batch.out.ensure(out)
	span := x.span()
	for o, bo := range d.B[:out] {
		acc := y.data[o*LaneWidth : o*LaneWidth+span]
		for s := range acc {
			acc[s] = bo
		}
	}
	tensor.DenseLanesInto(y.data, bx.data, d.W.Data(), x.lanes)
	if d.ReLU {
		for o := 0; o < out; o++ {
			acc := y.data[o*LaneWidth : o*LaneWidth+span]
			for s := range acc {
				if acc[s] < 0 {
					acc[s] = 0
				}
			}
		}
	}
	return d.batch.act.set(d.batch.outShape, x.lanes, y, nil)
}

// --- BinaryDense ------------------------------------------------------

type binaryDenseBatch struct {
	xbb      *bitops.BitBatch // binarized input when the input is floats
	out      *bitops.BitBatch
	scr      bitops.BatchScratch
	outShape []int
	act      batchAct
}

// forwardBatch is the fused bit-parallel dense layer: binarize (if
// needed), XNOR+popcount every lane against every weight row, and
// threshold straight back into batch-major bits.
func (b *BinaryDense) forwardBatch(x *batchAct) *batchAct {
	if sizeOf(x.shape) != b.W.Cols() {
		panic(fmt.Sprintf("bnn: %s: batch input size %d, want %d", b.LayerName, sizeOf(x.shape), b.W.Cols()))
	}
	if b.batch == nil {
		b.batch = &binaryDenseBatch{outShape: []int{b.W.Rows()}}
	}
	xb := x.bitLanes(&b.batch.xbb)
	b.batch.out = b.W.BipolarSignBatchInto(xb, b.Thresh, b.batch.out, &b.batch.scr)
	return b.batch.act.set(b.batch.outShape, x.lanes, nil, b.batch.out)
}

// --- BinaryConv2D -----------------------------------------------------

type binaryConvBatch struct {
	xbb      *bitops.BitBatch // binarized input when the input is floats
	patch    *bitops.BitBatch // one position's patch block (patchLen × lanes)
	pout     *bitops.BitBatch // one position's output block (OutC × lanes)
	out      *bitops.BitBatch
	scr      bitops.BatchScratch
	idx      []int // pos×patchLen im2col gather map, -1 = zero pad
	outShape []int
	act      batchAct
}

// convGatherIndices precomputes the bit-domain im2col: for each output
// position, the flat input-feature index of every patch element in
// Im2ColInto's element order, or -1 where padding reads as zero.
func convGatherIndices(g tensor.ConvGeom) []int {
	idx := make([]int, 0, g.Positions()*g.PatchLen())
	for oh := 0; oh < g.OutH(); oh++ {
		for ow := 0; ow < g.OutW(); ow++ {
			for c := 0; c < g.InC; c++ {
				for kh := 0; kh < g.KH; kh++ {
					ih := oh*g.StrideH + kh - g.PadH
					for kw := 0; kw < g.KW; kw++ {
						iw := ow*g.StrideW + kw - g.PadW
						if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
							idx = append(idx, -1)
						} else {
							idx = append(idx, (c*g.InH+ih)*g.InW+iw)
						}
					}
				}
			}
		}
	}
	return idx
}

// forwardBatch runs the binarized convolution on all lanes: the im2col
// happens in the bit domain as a word gather (one word moves the patch
// element of all 64 samples; padding gathers a zero word, matching
// sign(0) = −1 = bit 0), then each position is one fused batch dense
// step.
func (b *BinaryConv2D) forwardBatch(x *batchAct) *batchAct {
	g := b.Geom
	if len(x.shape) != 3 || x.shape[0] != g.InC || x.shape[1] != g.InH || x.shape[2] != g.InW {
		panic(fmt.Sprintf("bnn: %s: batch input %v does not match geom %dx%dx%d",
			b.LayerName, x.shape, g.InC, g.InH, g.InW))
	}
	pl, pos := g.PatchLen(), g.Positions()
	if b.batch == nil {
		b.batch = &binaryConvBatch{
			outShape: []int{b.OutC, g.OutH(), g.OutW()},
			idx:      convGatherIndices(g),
		}
	}
	xb := x.bitLanes(&b.batch.xbb)
	patch := bitops.EnsureBitBatch(b.batch.patch, pl, x.lanes)
	b.batch.patch = patch
	out := bitops.EnsureBitBatch(b.batch.out, b.OutC*pos, x.lanes)
	b.batch.out = out
	xw, pw, ow := xb.Words(), patch.Words(), out.Words()
	for p := 0; p < pos; p++ {
		for i, si := range b.batch.idx[p*pl : (p+1)*pl] {
			if si >= 0 {
				pw[i] = xw[si]
			} else {
				pw[i] = 0
			}
		}
		b.batch.pout = b.K.BipolarSignBatchInto(patch, b.Thresh, b.batch.pout, &b.batch.scr)
		pv := b.batch.pout.Words()
		for o := 0; o < b.OutC; o++ {
			ow[o*pos+p] = pv[o]
		}
	}
	return b.batch.act.set(b.batch.outShape, x.lanes, nil, out)
}

// --- Sign -------------------------------------------------------------

type signBatch struct {
	bb  *bitops.BitBatch
	act batchAct
}

// forwardBatch binarizes into the bit domain; ±1 is represented
// exactly, so a later float consumer recovers the same values Forward
// would have produced. A bit-domain input passes through unchanged
// (sign is idempotent on ±1).
func (s *Sign) forwardBatch(x *batchAct) *batchAct {
	if s.batch == nil {
		s.batch = &signBatch{}
	}
	bb := x.bitLanes(&s.batch.bb)
	return s.batch.act.set(x.shape, x.lanes, nil, bb)
}

// --- MaxPool2D --------------------------------------------------------

type poolBatch struct {
	bb       *bitops.BitBatch
	fl       lanedFloat
	outShape []int
	act      batchAct
}

// forwardBatch pools all lanes at once. In the bit domain max over ±1
// is an OR reduction, so one word-OR per window element advances 64
// samples; in the float domain each lane below the span runs the
// scalar window max.
func (m *MaxPool2D) forwardBatch(x *batchAct) *batchAct {
	if len(x.shape) != 3 {
		panic(fmt.Sprintf("bnn: %s: pooling needs CHW input, got %v", m.LayerName, x.shape))
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	oh, ow := h/m.Size, w/m.Size
	if m.batch == nil {
		m.batch = &poolBatch{}
	}
	mb := m.batch
	if len(mb.outShape) != 3 || mb.outShape[0] != c || mb.outShape[1] != oh || mb.outShape[2] != ow {
		mb.outShape = []int{c, oh, ow}
	}
	if x.bb != nil {
		out := bitops.EnsureBitBatch(mb.bb, c*oh*ow, x.lanes)
		mb.bb = out
		xw, yw := x.bb.Words(), out.Words()
		for ci := 0; ci < c; ci++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					var acc uint64
					for di := 0; di < m.Size; di++ {
						rowBase := (ci*h + i*m.Size + di) * w
						for dj := 0; dj < m.Size; dj++ {
							acc |= xw[rowBase+j*m.Size+dj]
						}
					}
					yw[(ci*oh+i)*ow+j] = acc
				}
			}
		}
		return mb.act.set(mb.outShape, x.lanes, nil, out)
	}
	out := mb.fl.ensure(c * oh * ow)
	xd := x.fl.data
	span := x.span()
	for ci := 0; ci < c; ci++ {
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				d := out.data[((ci*oh+i)*ow+j)*LaneWidth:]
				for s := 0; s < span; s++ {
					best := math.Inf(-1)
					for di := 0; di < m.Size; di++ {
						rowBase := (ci*h + i*m.Size + di) * w
						for dj := 0; dj < m.Size; dj++ {
							if v := xd[(rowBase+j*m.Size+dj)*LaneWidth+s]; v > best {
								best = v
							}
						}
					}
					d[s] = best
				}
			}
		}
	}
	return mb.act.set(mb.outShape, x.lanes, out, nil)
}

// --- Flatten ----------------------------------------------------------

type flattenBatch struct {
	outShape []int
	act      batchAct
}

// forwardBatch is a pure shape change: batch-major storage is already
// flat per feature.
func (f *Flatten) forwardBatch(x *batchAct) *batchAct {
	if f.batch == nil {
		f.batch = &flattenBatch{}
	}
	n := sizeOf(x.shape)
	if len(f.batch.outShape) != 1 || f.batch.outShape[0] != n {
		f.batch.outShape = []int{n}
	}
	return f.batch.act.set(f.batch.outShape, x.lanes, x.fl, x.bb)
}

// --- Fan-out fallback -------------------------------------------------

// fanScratch runs the one layer without a native batch path, ConvFP
// (Layer is sealed, so nothing else reaches it), by de-transposing each
// live lane, calling the per-sample Forward, and re-transposing the
// outputs — trivially bit-identical, at per-sample cost.
type fanScratch struct {
	in       *tensor.Float
	out      lanedFloat
	outShape []int
	act      batchAct
}

func shapeEqualTensor(shape []int, t *tensor.Float) bool {
	if t == nil || t.Dims() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}

func (fs *fanScratch) fan(l Layer, x *batchAct) *batchAct {
	if !shapeEqualTensor(x.shape, fs.in) {
		fs.in = tensor.NewFloat(x.shape...)
	}
	d := fs.in.Data()
	var out *lanedFloat
	for s := 0; s < x.lanes; s++ {
		if x.fl != nil {
			for i := range d {
				d[i] = x.fl.data[i*LaneWidth+s]
			}
		} else {
			words := x.bb.Words()
			for i := range d {
				if words[i]>>uint(s)&1 == 1 {
					d[i] = 1
				} else {
					d[i] = -1
				}
			}
		}
		y := l.Forward(fs.in)
		if s == 0 {
			if !shapeEqualTensor(fs.outShape, y) {
				fs.outShape = y.Shape()
			}
			out = fs.out.ensure(y.Size())
		}
		yd := y.Data()
		for i, v := range yd {
			out.data[i*LaneWidth+s] = v
		}
	}
	return fs.act.set(fs.outShape, x.lanes, out, nil)
}

// --- Model entry point ------------------------------------------------

// modelBatch is the model-owned staging for InferBatchBits.
type modelBatch struct {
	in    lanedFloat
	outFl lanedFloat // final de-transpose scratch when logits end in bits
	act   batchAct
	fans  []fanScratch
	outs  []*tensor.Float
}

// InferBatchBits runs the batch-major bit-parallel forward pass over 1
// to LaneWidth samples and returns their logits in input order, bit-
// identical to calling Infer per sample.
//
// Like Infer, the returned tensors are model-owned scratch, overwritten
// by the next call (Clone to retain), and the method is not safe for
// concurrent use on one model — the internal/infer engine hands each
// worker its own CloneShared copy. Steady-state calls allocate nothing.
func (m *Model) InferBatchBits(xs []*tensor.Float) []*tensor.Float {
	lanes := len(xs)
	if lanes == 0 || lanes > LaneWidth {
		panic(fmt.Sprintf("bnn: model %q: batch size %d, want 1..%d", m.ModelName, lanes, LaneWidth))
	}
	if m.batch == nil {
		m.batch = &modelBatch{
			fans: make([]fanScratch, len(m.Layers)),
			outs: make([]*tensor.Float, LaneWidth),
		}
	}
	mb := m.batch
	size := sizeOf(m.InputShape)
	in := mb.in.ensure(size)
	for s, x := range xs {
		if x == nil || x.Size() != size {
			panic(fmt.Sprintf("bnn: model %q: batch input %d does not hold %d elements", m.ModelName, s, size))
		}
		for i, v := range x.Data() {
			in.data[i*LaneWidth+s] = v
		}
	}
	act := mb.act.set(m.InputShape, lanes, in, nil)
	for li, l := range m.Layers {
		if bf, ok := l.(batchForwarder); ok {
			act = bf.forwardBatch(act)
		} else {
			act = mb.fans[li].fan(l, act)
		}
	}
	fl := act.floatLanes(&mb.outFl)
	n := sizeOf(act.shape)
	for s := 0; s < lanes; s++ {
		t := mb.outs[s]
		if !shapeEqualTensor(act.shape, t) {
			t = tensor.NewFloat(act.shape...)
			mb.outs[s] = t
		}
		td := t.Data()
		for i := 0; i < n; i++ {
			td[i] = fl.data[i*LaneWidth+s]
		}
	}
	return mb.outs[:lanes]
}
