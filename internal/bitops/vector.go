// Package bitops provides bit-packed binary vectors and the low-level
// XNOR/popcount arithmetic that underpins binary neural networks (BNNs).
//
// A BNN replaces the multiply-accumulate at the heart of a dense or
// convolutional layer with the identity (Eq. (1) of the paper):
//
//	In ⊛ W = 2 × Popcount(In' ⊙ W') − VectorLength
//
// where ⊙ is XNOR over the {0,1} encodings In', W' of the {-1,+1}
// vectors In, W. Everything in this package is exact integer math and is
// the software reference against which the analog crossbar simulator
// (internal/crossbar) and the mapping engines (internal/mapping) are
// verified.
package bitops

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector packed into 64-bit words.
// Bit i of the vector is bit (i % 64) of word i/64. Bits beyond Len in
// the final word are always zero ("canonical form"); every mutating
// operation restores this invariant so Popcount and Equal are O(words).
type Vector struct {
	n     int
	words []uint64
}

// NewVector returns an all-zero vector of length n bits.
// It panics if n is negative.
func NewVector(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitops: negative vector length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, wordsFor(n))}
}

// FromBools builds a vector from a slice of booleans (true = 1).
func FromBools(b []bool) *Vector {
	v := NewVector(len(b))
	for i, bit := range b {
		if bit {
			v.Set(i)
		}
	}
	return v
}

// FromBipolar builds a {0,1} vector from a {-1,+1} slice using the
// standard BNN encoding +1 → 1, -1 → 0. Any value > 0 maps to 1 so that
// the same helper binarizes real-valued pre-activations (sign function).
func FromBipolar(x []int) *Vector {
	return NewVector(len(x)).SetFromBipolar(x)
}

// FromFloats binarizes a float slice with the sign function
// (x > 0 → 1, x ≤ 0 → 0), the binarization used for BNN activations.
// The allocation-free form is Vector.SetFromFloats.
func FromFloats(x []float64) *Vector {
	return NewVector(len(x)).SetFromFloats(x)
}

func wordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// Len returns the length of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Words exposes the underlying packed words (read-only by convention).
// The final word is in canonical form (tail bits zero).
func (v *Vector) Words() []uint64 { return v.words }

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitops: index %d out of range [0,%d)", i, v.n))
	}
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	w := NewVector(v.n)
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and u have the same length and bits.
func (v *Vector) Equal(u *Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// mask returns the canonical-form mask for the last word.
func (v *Vector) mask() uint64 {
	r := uint(v.n % wordBits)
	if r == 0 {
		return ^uint64(0)
	}
	return (1 << r) - 1
}

// canonicalize zeroes the tail bits of the final word.
func (v *Vector) canonicalize() {
	if len(v.words) > 0 {
		v.words[len(v.words)-1] &= v.mask()
	}
}

// Popcount returns the number of set bits in v.
func (v *Vector) Popcount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Not returns the bitwise complement of v (in canonical form).
// The complement is central to both mappings in the paper: TacitMap
// stores [W ; ¬W] vertically, CustBinaryMap interleaves W with ¬W.
func (v *Vector) Not() *Vector { return v.NotInto(nil) }

// Xnor returns the bitwise XNOR of v and u. It panics on length mismatch.
func (v *Vector) Xnor(u *Vector) *Vector { return v.XnorInto(u, nil) }

// Xor returns the bitwise XOR of v and u. It panics on length mismatch.
func (v *Vector) Xor(u *Vector) *Vector { return v.XorInto(u, nil) }

// And returns the bitwise AND of v and u. It panics on length mismatch.
func (v *Vector) And(u *Vector) *Vector { return v.AndInto(u, nil) }

// Or returns the bitwise OR of v and u. It panics on length mismatch.
func (v *Vector) Or(u *Vector) *Vector { return v.OrInto(u, nil) }

func (v *Vector) sameLen(u *Vector) {
	if v.n != u.n {
		panic(fmt.Sprintf("bitops: length mismatch %d vs %d", v.n, u.n))
	}
}

// XnorPopcount returns Popcount(v ⊙ u) without allocating the
// intermediate vector. This is the exact quantity a TacitMap column
// produces in one analog step.
func XnorPopcount(v, u *Vector) int {
	v.sameLen(u)
	if len(v.words) == 0 {
		return 0
	}
	c := 0
	last := len(v.words) - 1
	for i := 0; i < last; i++ {
		c += bits.OnesCount64(^(v.words[i] ^ u.words[i]))
	}
	c += bits.OnesCount64(^(v.words[last] ^ u.words[last]) & v.mask())
	return c
}

// BipolarDot returns the {-1,+1} dot product of the vectors encoded by
// v and u using the Eq. (1) identity:
//
//	dot = 2·Popcount(v ⊙ u) − Len
func BipolarDot(v, u *Vector) int {
	return 2*XnorPopcount(v, u) - v.Len()
}

// AndPopcount returns Popcount(v & u), the quantity a raw (non-mapped)
// binary crossbar column accumulates: current flows only where the input
// line is driven (bit 1) and the cell is in the low-resistance /
// high-transmittance state (bit 1).
func AndPopcount(v, u *Vector) int {
	v.sameLen(u)
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] & u.words[i])
	}
	return c
}

// Concat returns the concatenation v ∥ u. TacitMap applies [X ; ¬X] to
// the crossbar rows, i.e. Concat(x, x.Not()).
func Concat(v, u *Vector) *Vector {
	w := NewVector(v.n + u.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			w.Set(i)
		}
	}
	for i := 0; i < u.n; i++ {
		if u.Get(i) {
			w.Set(v.n + i)
		}
	}
	return w
}

// Interleave returns the bitwise interleaving v0 u0 v1 u1 …, the layout
// CustBinaryMap uses to store a weight row (w ¬w pairs in 2T2R cells).
// It panics if the lengths differ.
func Interleave(v, u *Vector) *Vector {
	v.sameLen(u)
	w := NewVector(2 * v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			w.Set(2 * i)
		}
		if u.Get(i) {
			w.Set(2*i + 1)
		}
	}
	return w
}

// Slice returns the sub-vector [from, to). It panics if the range is
// invalid.
func (v *Vector) Slice(from, to int) *Vector {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitops: bad slice [%d,%d) of %d", from, to, v.n))
	}
	w := NewVector(to - from)
	for i := from; i < to; i++ {
		if v.Get(i) {
			w.Set(i - from)
		}
	}
	return w
}

// Bools expands the vector to a []bool.
func (v *Vector) Bools() []bool {
	out := make([]bool, v.n)
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

// Bipolar expands the vector to a {-1,+1} int slice (1 → +1, 0 → −1).
func (v *Vector) Bipolar() []int {
	out := make([]int, v.n)
	for i := range out {
		if v.Get(i) {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}

// String renders the vector MSB-last as a 0/1 string, e.g. "01101".
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse parses a 0/1 string produced by String.
func Parse(s string) (*Vector, error) {
	v := NewVector(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '1':
			v.Set(i)
		case '0':
		default:
			return nil, fmt.Errorf("bitops: invalid character %q at %d", s[i], i)
		}
	}
	return v, nil
}
