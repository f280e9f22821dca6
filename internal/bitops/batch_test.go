package bitops

import (
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, rng.Intn(2) == 1)
		}
	}
	return m
}

// TestPackUnpackRoundTrip pins the batch transpose against the
// per-sample layout across ragged lane counts and word-boundary
// feature counts.
func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, features := range []int{1, 63, 64, 65, 128, 300} {
		for _, lanes := range []int{1, 2, 63, 64} {
			samples := make([]*Vector, lanes)
			for s := range samples {
				samples[s] = randVec(rng, features)
			}
			b := PackSamples(samples)
			if b.Features() != features || b.lanes != lanes {
				t.Fatalf("pack dims %dx%d, want %dx%d", b.Features(), b.lanes, features, lanes)
			}
			// Element-level check against Vector.Get.
			for s := range samples {
				for f := 0; f < features; f++ {
					if lane(b, f, s) != samples[s].Get(f) {
						t.Fatalf("features=%d lanes=%d: bit (%d,%d) mismatch", features, lanes, f, s)
					}
				}
			}
			// Canonical form: no bits at or beyond Lanes().
			mask := b.laneMask()
			for f, w := range b.Words() {
				if w&^mask != 0 {
					t.Fatalf("features=%d lanes=%d: junk lane bits in word %d", features, lanes, f)
				}
			}
			// Unpack into a sample-major matrix.
			sm := b.unpackLanesInto(nil)
			if sm.Rows() != lanes || sm.Cols() != features {
				t.Fatalf("lanes matrix %dx%d, want %dx%d", sm.Rows(), sm.Cols(), lanes, features)
			}
			for s := range samples {
				if !sm.Row(s).Equal(samples[s]) {
					t.Fatalf("features=%d lanes=%d: lanes-matrix row %d mismatch", features, lanes, s)
				}
			}
		}
	}
}

// TestBatchKernelsMatchPerSample pins the fused batch kernels against
// the per-sample reference path for every lane.
func TestBatchKernelsMatchPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ rows, cols, lanes int }{
		{1, 1, 1}, {10, 64, 3}, {65, 100, 64}, {128, 1024, 64}, {120, 784, 17}, {64, 65, 2},
	} {
		m := randMat(rng, tc.rows, tc.cols)
		samples := make([]*Vector, tc.lanes)
		for s := range samples {
			samples[s] = randVec(rng, tc.cols)
		}
		thresh := make([]int, tc.rows)
		for i := range thresh {
			thresh[i] = rng.Intn(2*tc.cols+1) - tc.cols
		}
		x := PackSamples(samples)
		scr := &BatchScratch{}

		out := m.BipolarSignBatchInto(x, thresh, nil, scr)
		for s, v := range samples {
			refDot := m.BipolarMatVec(v)
			for o := 0; o < tc.rows; o++ {
				if lane(out, o, s) != (refDot[o] >= thresh[o]) {
					t.Fatalf("%dx%d lanes=%d: sign bit (s=%d,o=%d) mismatch",
						tc.rows, tc.cols, tc.lanes, s, o)
				}
			}
		}
	}
}

// TestXnorPopAsmMatchesGeneric pins the AVX-512 matrix kernel against
// the portable path on hosts that have it (skips silently elsewhere —
// the dispatch just never fires there).
func TestXnorPopAsmMatchesGeneric(t *testing.T) {
	if !hasXnorPopAsm {
		t.Skip("no AVX-512 VPOPCNTDQ on this host")
	}
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ rows, cols int }{
		{1, 512}, {7, 513}, {256, 1024}, {33, 640}, {3, 2048},
	} {
		m := randMat(rng, tc.rows, tc.cols)
		x := randVec(rng, tc.cols)
		got := m.XnorPopcountAllInto(x, nil)
		hasXnorPopAsm = false
		want := m.XnorPopcountAllInto(x, nil)
		hasXnorPopAsm = true
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("%dx%d row %d: asm %d, generic %d", tc.rows, tc.cols, r, got[r], want[r])
			}
		}
	}
}

// TestBatchKernelAllocs pins the steady-state batch path to zero
// allocations once scratch is warm.
func TestBatchKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMat(rng, 128, 512)
	samples := make([]*Vector, 64)
	for s := range samples {
		samples[s] = randVec(rng, 512)
	}
	thresh := make([]int, 128)
	scr := &BatchScratch{}
	x := PackSamples(samples)
	out := m.BipolarSignBatchInto(x, thresh, nil, scr)
	if n := testing.AllocsPerRun(10, func() {
		PackSamplesInto(samples, x)
		m.BipolarSignBatchInto(x, thresh, out, scr)
	}); n != 0 {
		t.Fatalf("steady-state batch kernels allocated %v times per run", n)
	}
}

// FuzzBitBatchRoundTrip drives arbitrary shapes — ragged lane counts,
// word-boundary feature/row counts — through pack → batch kernels →
// unpack and checks every lane against the per-sample reference.
func FuzzBitBatchRoundTrip(f *testing.F) {
	f.Add(int64(1), 64, 10, 64)
	f.Add(int64(2), 1, 1, 1)
	f.Add(int64(3), 65, 63, 3)
	f.Add(int64(4), 128, 64, 17)
	f.Add(int64(5), 127, 129, 33)
	f.Fuzz(func(t *testing.T, seed int64, cols, rows, lanes int) {
		// Clamp to sane shapes rather than rejecting, so every input
		// exercises the kernels.
		cols = 1 + abs(cols)%700
		rows = 1 + abs(rows)%200
		lanes = 1 + abs(lanes)%64
		rng := rand.New(rand.NewSource(seed))
		m := randMat(rng, rows, cols)
		samples := make([]*Vector, lanes)
		for s := range samples {
			samples[s] = randVec(rng, cols)
		}
		thresh := make([]int, rows)
		for i := range thresh {
			thresh[i] = rng.Intn(2*cols+1) - cols
		}

		x := PackSamplesInto(samples, nil)
		// Round trip must be lossless.
		back := x.unpackLanesInto(nil)
		for s := range samples {
			if !back.Row(s).Equal(samples[s]) {
				t.Fatalf("round trip lane %d mismatch (cols=%d lanes=%d)", s, cols, lanes)
			}
		}
		// Fused sign kernel must match the per-sample path bit for bit.
		scr := &BatchScratch{}
		out := m.BipolarSignBatchInto(x, thresh, nil, scr)
		for s, v := range samples {
			ref := m.BipolarMatVec(v)
			for o := 0; o < rows; o++ {
				if lane(out, o, s) != (ref[o] >= thresh[o]) {
					t.Fatalf("sign (s=%d,o=%d) mismatch (rows=%d cols=%d lanes=%d)", s, o, rows, cols, lanes)
				}
			}
		}
		// Output block stays canonical.
		mask := out.laneMask()
		for f2, w := range out.Words() {
			if w&^mask != 0 {
				t.Fatalf("junk lane bits in output word %d", f2)
			}
		}
	})
}

// lane reports the bit of feature f, lane s.
func lane(b *BitBatch, f, s int) bool { return b.words[f]>>uint(s)&1 == 1 }

func abs(v int) int {
	if v < 0 {
		if v == -v { // MinInt
			return 0
		}
		return -v
	}
	return v
}

func BenchmarkBitBatchKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := randMat(rng, 1024, 1024)
	samples := make([]*Vector, 64)
	for s := range samples {
		samples[s] = randVec(rng, 1024)
	}
	thresh := make([]int, 1024)
	scr := &BatchScratch{}
	x := PackSamples(samples)
	out := m.BipolarSignBatchInto(x, thresh, nil, scr)
	b.Run("BipolarSignBatch/1024x1024x64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.BipolarSignBatchInto(x, thresh, out, scr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/sample")
	})
}
