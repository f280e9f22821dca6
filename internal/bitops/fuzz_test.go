package bitops

import (
	"math/rand"
	"testing"
)

// Fuzz targets for the word-wise bit-range primitives (Blit, BlitNot,
// SliceInto, PopcountRange), cross-checked against naive bit-at-a-time
// references. The funnel-shift loops have their hairiest behavior
// around word boundaries — offsets and lengths straddling multiples of
// 64 — so the seed corpus pins those and the fuzzer mutates from there.
//
// Run with `go test -fuzz FuzzBlit ./internal/bitops` to explore; the
// seed corpus runs as part of the normal test suite.

// fuzzVector builds a deterministic pseudo-random vector of n bits.
func fuzzVector(n int, seed int64) *Vector {
	rng := rand.New(rand.NewSource(seed))
	v := NewVector(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// clampRange maps arbitrary fuzz integers onto a valid [from,to) range
// of an n-bit vector.
func clampRange(n int, from, to int) (int, int) {
	if n == 0 {
		return 0, 0
	}
	from = ((from % n) + n) % n
	to = ((to % (n + 1)) + n + 1) % (n + 1)
	if from > to {
		from, to = to, from
	}
	return from, to
}

// seedBoundaryCorpus adds word-boundary-straddling cases shared by all
// four targets.
func seedBoundaryCorpus(f *testing.F) {
	f.Helper()
	f.Add(128, 130, 0, 64, 0, int64(1))
	f.Add(200, 200, 63, 129, 1, int64(2))   // crosses two word boundaries
	f.Add(64, 64, 0, 64, 0, int64(3))       // exactly one word
	f.Add(65, 191, 64, 65, 63, int64(4))    // single bit at a boundary
	f.Add(300, 300, 120, 250, 70, int64(5)) // long unaligned run
	f.Add(7, 70, 3, 7, 60, int64(6))        // tail-word only
	f.Add(1, 1, 0, 1, 0, int64(7))          // minimal
	f.Add(512, 512, 191, 385, 1, int64(8))  // off-by-one around 192/384
}

func FuzzBlit(f *testing.F) {
	seedBoundaryCorpus(f)
	f.Fuzz(func(t *testing.T, srcN, dstN, from, to, dstOff int, seed int64) {
		srcN, dstN = srcN%4096, dstN%4096
		if srcN <= 0 || dstN <= 0 {
			t.Skip()
		}
		from, to = clampRange(srcN, from, to)
		n := to - from
		if n > dstN {
			to = from + dstN
			n = dstN
		}
		dstOff = ((dstOff % dstN) + dstN) % dstN
		if dstOff+n > dstN {
			dstOff = dstN - n
		}
		src := fuzzVector(srcN, seed)
		dst := fuzzVector(dstN, seed+1)
		want := dst.Clone()
		for i := 0; i < n; i++ { // naive bit-at-a-time reference
			setBit(want, dstOff+i, src.Get(from+i))
		}
		dst.Blit(dstOff, src, from, to)
		if !dst.Equal(want) {
			t.Fatalf("Blit(dstOff=%d, [%d,%d)) of %d→%d bits diverges from bitwise reference",
				dstOff, from, to, srcN, dstN)
		}
	})
}

func FuzzBlitNot(f *testing.F) {
	seedBoundaryCorpus(f)
	f.Fuzz(func(t *testing.T, srcN, dstN, from, to, dstOff int, seed int64) {
		srcN, dstN = srcN%4096, dstN%4096
		if srcN <= 0 || dstN <= 0 {
			t.Skip()
		}
		from, to = clampRange(srcN, from, to)
		n := to - from
		if n > dstN {
			to = from + dstN
			n = dstN
		}
		dstOff = ((dstOff % dstN) + dstN) % dstN
		if dstOff+n > dstN {
			dstOff = dstN - n
		}
		src := fuzzVector(srcN, seed)
		dst := fuzzVector(dstN, seed+1)
		want := dst.Clone()
		for i := 0; i < n; i++ {
			setBit(want, dstOff+i, !src.Get(from+i))
		}
		dst.BlitNot(dstOff, src, from, to)
		if !dst.Equal(want) {
			t.Fatalf("BlitNot(dstOff=%d, [%d,%d)) of %d→%d bits diverges from bitwise reference",
				dstOff, from, to, srcN, dstN)
		}
		// Canonical form: tail bits past Len stay zero.
		if w := dst.Words(); len(w) > 0 && dstN%64 != 0 && w[len(w)-1]>>(uint(dstN)%64) != 0 {
			t.Fatalf("BlitNot left non-canonical tail bits")
		}
	})
}

func FuzzSliceInto(f *testing.F) {
	seedBoundaryCorpus(f)
	f.Fuzz(func(t *testing.T, srcN, _unused, from, to, reuse int, seed int64) {
		srcN = srcN % 4096
		if srcN <= 0 {
			t.Skip()
		}
		from, to = clampRange(srcN, from, to)
		src := fuzzVector(srcN, seed)
		var dst *Vector
		if reuse%2 == 1 {
			dst = fuzzVector(to-from, seed+2) // dirty destination must be fully overwritten
		}
		got := src.SliceInto(from, to, dst)
		if got.Len() != to-from {
			t.Fatalf("SliceInto [%d,%d): length %d", from, to, got.Len())
		}
		for i := 0; i < to-from; i++ {
			if got.Get(i) != src.Get(from+i) {
				t.Fatalf("SliceInto [%d,%d): bit %d diverges from bitwise reference", from, to, i)
			}
		}
		if got.Popcount() != src.PopcountRange(from, to) {
			t.Fatalf("SliceInto/PopcountRange disagree on [%d,%d)", from, to)
		}
	})
}

func FuzzPopcountRange(f *testing.F) {
	seedBoundaryCorpus(f)
	f.Fuzz(func(t *testing.T, srcN, _unused, from, to, _unused2 int, seed int64) {
		srcN = srcN % 4096
		if srcN <= 0 {
			t.Skip()
		}
		from, to = clampRange(srcN, from, to)
		src := fuzzVector(srcN, seed)
		want := 0
		for i := from; i < to; i++ {
			if src.Get(i) {
				want++
			}
		}
		if got := src.PopcountRange(from, to); got != want {
			t.Fatalf("PopcountRange [%d,%d) of %d bits = %d, bitwise reference %d",
				from, to, srcN, got, want)
		}
	})
}
