package bitops

import "fmt"

// BitBatch is the batch-major activation layout of the bit-parallel
// inference path: up to 64 samples ("lanes") ride side by side, one
// uint64 word per feature, with bit s of Word(f) holding feature f of
// sample s. One word-op therefore advances all lanes of one feature at
// once, and a whole batch-major activation block is just Features()
// contiguous words — no per-sample objects.
//
// Lane bits at or beyond the live lane count are always zero (the
// canonical form, mirroring Vector), so ragged batches (< 64 samples)
// use the same code paths with no masking in the kernels.
//
// Conversion to and from per-sample form is the blocked 64×64 bit
// transpose (transpose64) that also powers Matrix.Transpose: a feature
// block of 64 words in sample-major order is one transpose away from
// the same block in batch-major order.
type BitBatch struct {
	features, lanes int
	words           []uint64 // len == features
}

// NewBitBatch returns an all-zero batch block. Panics unless
// 0 ≤ lanes ≤ 64 and features ≥ 0.
func NewBitBatch(features, lanes int) *BitBatch {
	checkBatchDims(features, lanes)
	return &BitBatch{features: features, lanes: lanes, words: make([]uint64, features)}
}

func checkBatchDims(features, lanes int) {
	if features < 0 {
		panic(fmt.Sprintf("bitops: negative BitBatch features %d", features))
	}
	if lanes < 0 || lanes > wordBits {
		panic(fmt.Sprintf("bitops: BitBatch lanes %d out of range [0,%d]", lanes, wordBits))
	}
}

// EnsureBitBatch resizes b to features×lanes, reusing its storage when
// capacity allows; a nil b allocates. The contents are undefined until
// overwritten (every producer in this package writes all words).
func EnsureBitBatch(b *BitBatch, features, lanes int) *BitBatch {
	if b == nil {
		return NewBitBatch(features, lanes)
	}
	checkBatchDims(features, lanes)
	if cap(b.words) < features {
		b.words = make([]uint64, features)
	} else {
		b.words = b.words[:features]
	}
	b.features, b.lanes = features, lanes
	return b
}

// Features returns the per-sample feature count.
func (b *BitBatch) Features() int { return b.features }

// Words exposes the backing slice — one word per feature, bit s =
// sample s. Kernels in internal/bnn compose on these words directly
// (OR-pooling, im2col gathers); writers must keep lane bits at or
// beyond the live lane count zero.
func (b *BitBatch) Words() []uint64 { return b.words }

// laneMask is the canonical-form mask for the live lanes.
func (b *BitBatch) laneMask() uint64 {
	if b.lanes == wordBits {
		return ^uint64(0)
	}
	return (1 << uint(b.lanes)) - 1
}

func (b *BitBatch) check(f, s int) {
	if f < 0 || f >= b.features {
		panic(fmt.Sprintf("bitops: BitBatch feature %d out of range [0,%d)", f, b.features))
	}
	if s < 0 || s >= b.lanes {
		panic(fmt.Sprintf("bitops: BitBatch lane %d out of range [0,%d)", s, b.lanes))
	}
}

// PackSamples transposes up to 64 equal-length sample vectors into a
// fresh batch-major block; PackSamplesInto is the zero-alloc form.
func PackSamples(samples []*Vector) *BitBatch { return PackSamplesInto(samples, nil) }

// PackSamplesInto transposes the samples into dst (nil allocates),
// lane s ← samples[s], 64×64 bit-block at a time. All samples must
// share one length; len(samples) must be in [1,64].
func PackSamplesInto(samples []*Vector, dst *BitBatch) *BitBatch {
	if len(samples) == 0 || len(samples) > wordBits {
		panic(fmt.Sprintf("bitops: PackSamplesInto got %d samples, want 1..%d", len(samples), wordBits))
	}
	features := samples[0].n
	for i, s := range samples {
		if s.n != features {
			panic(fmt.Sprintf("bitops: PackSamplesInto sample %d has %d features, want %d", i, s.n, features))
		}
	}
	dst = EnsureBitBatch(dst, features, len(samples))
	var blk [64]uint64
	for wb := 0; wb < wordsFor(features); wb++ {
		for s, v := range samples {
			blk[s] = v.words[wb]
		}
		for s := len(samples); s < wordBits; s++ {
			blk[s] = 0
		}
		transpose64(&blk)
		base := wb * wordBits
		span := features - base
		if span > wordBits {
			span = wordBits
		}
		copy(dst.words[base:base+span], blk[:span])
	}
	return dst
}

// unpackLanesInto transposes the block into a sample-major lanes ×
// Features() matrix (row s = sample s), reusing dst's storage when
// capacity allows (nil allocates). This is how the dense batch kernels
// feed the flat per-row XNOR+popcount path.
func (b *BitBatch) unpackLanesInto(dst *Matrix) *Matrix {
	dst = ensureMatrix(dst, b.lanes, b.features)
	var blk [64]uint64
	for wb := 0; wb < dst.stride; wb++ {
		b.loadBlock(wb, &blk)
		for s := 0; s < b.lanes; s++ {
			dst.words[s*dst.stride+wb] = blk[s]
		}
	}
	return dst
}

// loadBlock transposes feature block wb (features [wb*64, wb*64+64))
// into blk, so blk[s] holds those 64 features of sample s. Features
// beyond the end read as zero, keeping every output row canonical.
func (b *BitBatch) loadBlock(wb int, blk *[64]uint64) {
	base := wb * wordBits
	span := b.features - base
	if span > wordBits {
		span = wordBits
	}
	copy(blk[:span], b.words[base:base+span])
	for j := span; j < wordBits; j++ {
		blk[j] = 0
	}
	transpose64(blk)
}

// ensureMatrix resizes m to rows×cols reusing its storage when capacity
// allows (nil allocates). Contents are undefined until overwritten.
func ensureMatrix(m *Matrix, rows, cols int) *Matrix {
	if m == nil {
		return NewMatrix(rows, cols)
	}
	stride := wordsFor(cols)
	need := rows * stride
	if cap(m.words) < need {
		m.words = make([]uint64, need)
	} else {
		m.words = m.words[:need]
	}
	m.rows, m.cols, m.stride = rows, cols, stride
	return m
}

// BatchScratch holds the reusable buffers of the dense batch kernels:
// the sample-major view of the input block, the sample-major output
// bits, and one lane's popcount accumulator. A zero BatchScratch is
// ready to use; buffers grow to the largest layer that passes through
// and are owned by whoever owns the scratch (one per layer clone in
// internal/bnn).
type BatchScratch struct {
	lanesSM *Matrix // lanes × cols sample-major input
	outSM   *Matrix // lanes × rows sample-major output bits
	dots    []int   // rows-long popcounts of one lane
	rowv    Vector  // reusable row-view header
}

// ensureDots returns the rows-long accumulator.
func (s *BatchScratch) ensureDots(rows int) []int {
	if cap(s.dots) < rows {
		s.dots = make([]int, rows)
	}
	s.dots = s.dots[:rows]
	return s.dots
}

// BipolarSignBatchInto fuses a binary dense layer over the whole batch:
// out's feature o, lane s is set iff 2·Popcount(lane s ⊙ row o) − cols
// ≥ thresh[o] — the XNOR+popcount, threshold, and re-binarization of
// BinaryDense.Forward with the result left directly in batch-major
// form, never round-tripping through per-sample vectors. out is resized
// to Rows() × the batch lanes (nil allocates); steady-state calls allocate
// nothing.
func (m *Matrix) BipolarSignBatchInto(x *BitBatch, thresh []int, out *BitBatch, scr *BatchScratch) *BitBatch {
	if x.features != m.cols {
		panic(fmt.Sprintf("bitops: batch features %d != cols %d", x.features, m.cols))
	}
	if len(thresh) != m.rows {
		panic(fmt.Sprintf("bitops: thresh length %d, want %d rows", len(thresh), m.rows))
	}
	scr.lanesSM = x.unpackLanesInto(scr.lanesSM)
	scr.outSM = ensureMatrix(scr.outSM, x.lanes, m.rows)
	dots := scr.ensureDots(m.rows)
	ostride := scr.outSM.stride
	for s := 0; s < x.lanes; s++ {
		m.XnorPopcountAllInto(scr.lanesSM.rowInto(s, &scr.rowv), dots)
		orow := scr.outSM.words[s*ostride : (s+1)*ostride]
		for wi := range orow {
			base := wi * wordBits
			span := m.rows - base
			if span > wordBits {
				span = wordBits
			}
			var w uint64
			for k := 0; k < span; k++ {
				o := base + k
				if 2*dots[o]-m.cols >= thresh[o] {
					w |= 1 << uint(k)
				}
			}
			orow[wi] = w
		}
	}
	out = EnsureBitBatch(out, m.rows, x.lanes)
	packMatrixLanes(scr.outSM, out)
	return out
}

// packMatrixLanes transposes a sample-major src (rows = lanes) into the
// batch-major dst (features = src cols); the inverse of
// unpackLanesInto.
func packMatrixLanes(src *Matrix, dst *BitBatch) {
	var blk [64]uint64
	for wb := 0; wb < src.stride; wb++ {
		for s := 0; s < src.rows; s++ {
			blk[s] = src.words[s*src.stride+wb]
		}
		for s := src.rows; s < wordBits; s++ {
			blk[s] = 0
		}
		transpose64(&blk)
		base := wb * wordBits
		span := dst.features - base
		if span > wordBits {
			span = wordBits
		}
		copy(dst.words[base:base+span], blk[:span])
	}
}

// rowInto fills v with a zero-alloc view of row i (same storage as
// Row, but reusing a caller-owned header).
func (m *Matrix) rowInto(i int, v *Vector) *Vector {
	m.checkRow(i)
	v.n = m.cols
	v.words = m.words[i*m.stride : (i+1)*m.stride : (i+1)*m.stride]
	return v
}
