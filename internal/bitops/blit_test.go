package bitops

import (
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) *Vector {
	v := NewVector(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

// setBit is the per-bit reference write.
func setBit(v *Vector, i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

func TestBlitMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		srcLen := 1 + rng.Intn(300)
		dstLen := 1 + rng.Intn(300)
		src := randVec(rng, srcLen)
		dst := randVec(rng, dstLen)
		from := rng.Intn(srcLen + 1)
		to := from + rng.Intn(srcLen-from+1)
		n := to - from
		if n > dstLen {
			to = from + dstLen
			n = to - from
		}
		dstOff := rng.Intn(dstLen - n + 1)
		invert := rng.Intn(2) == 1

		want := dst.Clone()
		for i := 0; i < n; i++ {
			setBit(want, dstOff+i, src.Get(from+i) != invert)
		}
		got := dst.Clone()
		if invert {
			got.BlitNot(dstOff, src, from, to)
		} else {
			got.Blit(dstOff, src, from, to)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: blit(%d, [%d,%d), invert=%v) mismatch\ngot  %s\nwant %s",
				trial, dstOff, from, to, invert, got, want)
		}
	}
}

func TestBlitPanicsOutOfRange(t *testing.T) {
	src := NewVector(10)
	dst := NewVector(10)
	for _, f := range []func(){
		func() { dst.Blit(5, src, 0, 10) },   // overflows dst
		func() { dst.Blit(0, src, 3, 11) },   // src range out of bounds
		func() { dst.Blit(-1, src, 0, 1) },   // negative offset
		func() { dst.BlitNot(0, src, 5, 4) }, // inverted range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSliceIntoMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(250)
		v := randVec(rng, n)
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n-from+1)
		want := v.Slice(from, to)
		got := v.SliceInto(from, to, nil)
		if !got.Equal(want) {
			t.Fatalf("SliceInto [%d,%d) of %d mismatch", from, to, n)
		}
		dst := randVec(rng, to-from)
		if !v.SliceInto(from, to, dst).Equal(want) {
			t.Fatalf("SliceInto reuse [%d,%d) of %d mismatch", from, to, n)
		}
	}
}

func TestPopcountRangeMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		v := randVec(rng, n)
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n-from+1)
		want := 0
		for i := from; i < to; i++ {
			if v.Get(i) {
				want++
			}
		}
		if got := v.PopcountRange(from, to); got != want {
			t.Fatalf("PopcountRange(%d,%d) = %d, want %d", from, to, got, want)
		}
	}
	v := NewVector(130)
	if v.PopcountRange(0, 0) != 0 || v.PopcountRange(130, 130) != 0 {
		t.Fatal("empty range must count zero")
	}
}

func TestMatrixCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	src := NewMatrix(9, 70)
	for r := 0; r < 9; r++ {
		for c := 0; c < 70; c++ {
			src.Set(r, c, rng.Intn(2) == 1)
		}
	}
	dst := NewMatrix(9, 70)
	dst.Set(0, 0, true)
	dst.CopyFrom(src)
	for r := 0; r < 9; r++ {
		if !dst.Row(r).Equal(src.Row(r)) {
			t.Fatal("CopyFrom mismatch")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected dimension panic")
		}
	}()
	dst.CopyFrom(NewMatrix(3, 3))
}
