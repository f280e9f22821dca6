package bitops

import (
	"fmt"
	"math/bits"
)

// Matrix is a dense binary matrix stored as a single contiguous
// row-major []uint64 with a fixed words-per-row stride, so the
// XNOR+Popcount inner loop streams one flat slice with no pointer
// chasing and no per-row heap objects.
//
// In BNN terms a weight matrix has one row per output neuron (a "weight
// vector" in the paper's language) and one column per input feature.
// Every row starts on a word boundary and keeps the Vector canonical
// form (tail bits of the last word in each row are zero).
type Matrix struct {
	rows, cols int
	stride     int      // words per row == wordsFor(cols)
	words      []uint64 // len == rows*stride, row-major
}

// NewMatrix returns an all-zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitops: negative matrix dims %dx%d", rows, cols))
	}
	stride := wordsFor(cols)
	return &Matrix{rows: rows, cols: cols, stride: stride, words: make([]uint64, rows*stride)}
}

// MatrixFromRows builds a matrix from row vectors, which must all share
// the same length. The vectors are copied.
func MatrixFromRows(rows []*Vector) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := rows[0].Len()
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if r.Len() != cols {
			panic(fmt.Sprintf("bitops: ragged rows: row %d has %d cols, want %d", i, r.Len(), cols))
		}
		copy(m.words[i*m.stride:(i+1)*m.stride], r.words)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Words exposes the flat row-major backing slice (read-only by
// convention); row r occupies words[r*stride : (r+1)*stride].
func (m *Matrix) Words() []uint64 { return m.words }

// RowWords returns the packed words of row i as a subslice of the
// backing array (no copy).
func (m *Matrix) RowWords(i int) []uint64 {
	m.checkRow(i)
	return m.words[i*m.stride : (i+1)*m.stride]
}

// Row returns row i as a Vector view sharing the matrix storage:
// mutations through the view are visible in the matrix. Only the small
// Vector header is allocated.
func (m *Matrix) Row(i int) *Vector {
	m.checkRow(i)
	return &Vector{n: m.cols, words: m.words[i*m.stride : (i+1)*m.stride : (i+1)*m.stride]}
}

func (m *Matrix) checkRow(i int) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitops: row %d out of range [0,%d)", i, m.rows))
	}
}

// Set sets bit (r, c) to b.
func (m *Matrix) Set(r, c int, b bool) {
	m.checkRow(r)
	if c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitops: col %d out of range [0,%d)", c, m.cols))
	}
	if b {
		m.words[r*m.stride+c/wordBits] |= 1 << (uint(c) % wordBits)
	} else {
		m.words[r*m.stride+c/wordBits] &^= 1 << (uint(c) % wordBits)
	}
}

// Col extracts column c as a fresh Vector of length rows.
func (m *Matrix) Col(c int) *Vector { return m.ColInto(c, nil) }

// ColInto extracts column c into dst (length rows), allocating only
// when dst is nil. The gather is word-wise over the flat storage: each
// output word collects the column bit of 64 consecutive rows.
func (m *Matrix) ColInto(c int, dst *Vector) *Vector {
	if c < 0 || c >= m.cols {
		panic(fmt.Sprintf("bitops: col %d out of range [0,%d)", c, m.cols))
	}
	if dst == nil {
		dst = NewVector(m.rows)
	} else if dst.n != m.rows {
		panic(fmt.Sprintf("bitops: ColInto dst length %d, want %d", dst.n, m.rows))
	}
	wi, sh := c/wordBits, uint(c)%wordBits
	for wo := range dst.words {
		rbase := wo * wordBits
		span := m.rows - rbase
		if span > wordBits {
			span = wordBits
		}
		var w uint64
		idx := rbase*m.stride + wi
		for k := 0; k < span; k++ {
			w |= (m.words[idx] >> sh & 1) << uint(k)
			idx += m.stride
		}
		dst.words[wo] = w
	}
	return dst
}

// transpose64 transposes a 64×64 bit block in place. Bit c of a[r] is
// entry (r, c) — the package's LSB-first convention — so this is the
// Hacker's Delight recursive block swap with the shifts mirrored.
func transpose64(a *[64]uint64) {
	j := uint(32)
	mask := uint64(0x00000000FFFFFFFF)
	// The mask update must see the halved j (C's comma operator does;
	// Go's tuple assignment evaluates the RHS with the old j).
	for ; j != 0; j, mask = j>>1, mask^(mask<<(j>>1)) {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & mask
			a[k] ^= t << j
			a[k+j] ^= t
		}
	}
}

// Transpose returns the transposed matrix, built 64×64 bit-block at a
// time over the flat storage rather than bit by bit.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	var blk [64]uint64
	for rb := 0; rb < m.rows; rb += wordBits {
		span := m.rows - rb
		if span > wordBits {
			span = wordBits
		}
		wcol := rb / wordBits // destination word index within each t row
		for cb := 0; cb < m.stride; cb++ {
			for k := 0; k < span; k++ {
				blk[k] = m.words[(rb+k)*m.stride+cb]
			}
			for k := span; k < wordBits; k++ {
				blk[k] = 0
			}
			transpose64(&blk)
			cmax := m.cols - cb*wordBits
			if cmax > wordBits {
				cmax = wordBits
			}
			for j := 0; j < cmax; j++ {
				t.words[(cb*wordBits+j)*t.stride+wcol] = blk[j]
			}
		}
	}
	return t
}

// Clone deep-copies the matrix with a single allocation.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, stride: m.stride, words: make([]uint64, len(m.words))}
	copy(c.words, m.words)
	return c
}

// XnorPopcountAllInto computes Popcount(x ⊙ row) for every row of the
// matrix — the full XNOR+Popcount workload of one BNN layer on one
// input vector, and the software-reference result that one TacitMap VMM
// step must reproduce across its columns. The fused kernel streams the
// flat backing slice row by row and writes the per-row popcounts into
// dst (length Rows), allocating only when dst is nil.
func (m *Matrix) XnorPopcountAllInto(x *Vector, dst []int) []int {
	if x.Len() != m.cols {
		panic(fmt.Sprintf("bitops: input length %d != cols %d", x.Len(), m.cols))
	}
	if dst == nil {
		dst = make([]int, m.rows)
	} else if len(dst) != m.rows {
		panic(fmt.Sprintf("bitops: XnorPopcountAllInto dst length %d, want %d", len(dst), m.rows))
	}
	// Both x and every row are canonical (tail bits zero), so the XOR of
	// corresponding words has a clean tail and
	//
	//	Popcount(x ⊙ row) = cols − Σ Popcount(x ^ row words)
	//
	// — no per-word complement and no tail-mask special case.
	if m.rows == 0 {
		return dst
	}
	if hasXnorPopAsm && m.stride >= 8 {
		xnorPopMatrixAVX512(&m.words[0], &x.words[0], m.rows, m.stride, &dst[0])
		for r, c := range dst {
			dst[r] = m.cols - c
		}
		return dst
	}
	if m.stride == 16 {
		m.xnorPop16(x.words, dst)
		return dst
	}
	stride := m.stride
	xw := x.words[:stride] // bounds-check hint for the inner loop
	base := 0
	for r := 0; r < m.rows; r++ {
		c := 0
		for i, w := range m.words[base : base+stride] {
			c += bits.OnesCount64(w ^ xw[i])
		}
		dst[r] = m.cols - c
		base += stride
	}
	return dst
}

// xnorPop16 is the stride-16 (cols ≤ 1024) specialization of
// XnorPopcountAllInto: the 16 input words are hoisted into locals and
// each row is a straight-line chain of XOR+popcounts, which removes the
// inner loop control and the repeated x loads that dominate the generic
// path at this width.
func (m *Matrix) xnorPop16(xw []uint64, dst []int) {
	x0, x1, x2, x3 := xw[0], xw[1], xw[2], xw[3]
	x4, x5, x6, x7 := xw[4], xw[5], xw[6], xw[7]
	x8, x9, x10, x11 := xw[8], xw[9], xw[10], xw[11]
	x12, x13, x14, x15 := xw[12], xw[13], xw[14], xw[15]
	base := 0
	for r := 0; r < m.rows; r++ {
		row := m.words[base : base+16 : base+16]
		c := bits.OnesCount64(row[0]^x0) + bits.OnesCount64(row[1]^x1) +
			bits.OnesCount64(row[2]^x2) + bits.OnesCount64(row[3]^x3) +
			bits.OnesCount64(row[4]^x4) + bits.OnesCount64(row[5]^x5) +
			bits.OnesCount64(row[6]^x6) + bits.OnesCount64(row[7]^x7) +
			bits.OnesCount64(row[8]^x8) + bits.OnesCount64(row[9]^x9) +
			bits.OnesCount64(row[10]^x10) + bits.OnesCount64(row[11]^x11) +
			bits.OnesCount64(row[12]^x12) + bits.OnesCount64(row[13]^x13) +
			bits.OnesCount64(row[14]^x14) + bits.OnesCount64(row[15]^x15)
		dst[r] = m.cols - c
		base += 16
	}
}

// BipolarMatVec computes the {-1,+1} matrix-vector product via Eq. (1):
// out[i] = 2·Popcount(x ⊙ row_i) − cols.
func (m *Matrix) BipolarMatVec(x *Vector) []int {
	return m.BipolarMatVecInto(x, nil)
}

// BipolarMatVecInto is the zero-allocation variant of BipolarMatVec;
// dst must have length Rows (nil allocates).
func (m *Matrix) BipolarMatVecInto(x *Vector, dst []int) []int {
	dst = m.XnorPopcountAllInto(x, dst)
	for i, pc := range dst {
		dst[i] = 2*pc - m.cols
	}
	return dst
}
