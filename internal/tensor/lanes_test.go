package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLanes runs the scalar per-sample DenseFP inner loop for each lane
// below the span of live.
func refLanes(y, x, w []float64, live int) {
	in, out := len(x)/LaneWidth, len(y)/LaneWidth
	for o := 0; o < out; o++ {
		for s := 0; s < LaneSpan(live); s++ {
			v := y[o*LaneWidth+s]
			for f := 0; f < in; f++ {
				v += w[o*in+f] * x[f*LaneWidth+s]
			}
			y[o*LaneWidth+s] = v
		}
	}
}

// sameBits compares two float64s bit for bit, treating any two NaNs as
// equal (NaN payload propagation is not part of the contract).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkDenseLanes runs the dispatched kernel (asm on capable hosts),
// the generic kernel and the scalar reference from the same y and
// requires bit-identical lanes below the span and untouched lanes at
// or above it.
func checkDenseLanes(t *testing.T, y, x, w []float64, live int) {
	t.Helper()
	in := len(x) / LaneWidth
	want := append([]float64(nil), y...)
	got := append([]float64(nil), y...)
	gen := append([]float64(nil), y...)
	refLanes(want, x, w, live)
	DenseLanesInto(got, x, w, live)
	if in > 0 && len(y) > 0 {
		denseLanesGeneric(gen, x, w, in, LaneSpan(live))
	}
	for i := range y {
		o, s := i/LaneWidth, i%LaneWidth
		if s >= LaneSpan(live) && (math.Float64bits(got[i]) != math.Float64bits(y[i]) ||
			math.Float64bits(gen[i]) != math.Float64bits(y[i])) {
			t.Fatalf("in=%d live=%d out %d lane %d above span written: dispatched %v, generic %v, was %v",
				in, live, o, s, got[i], gen[i], y[i])
		}
		if !sameBits(got[i], want[i]) {
			t.Fatalf("in=%d live=%d out %d lane %d: dispatched %v, scalar reference %v", in, live, o, s, got[i], want[i])
		}
		if !sameBits(gen[i], want[i]) {
			t.Fatalf("in=%d live=%d out %d lane %d: generic %v, scalar reference %v", in, live, o, s, gen[i], want[i])
		}
	}
}

func normals(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestDenseLanesBitIdentical pins the dispatched kernel and the generic
// kernel to the scalar reference, bit for bit, at every live lane count
// and at output counts covering the 8×8 tile, the 1×8 remainder tile
// and both together.
func TestDenseLanesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ in, out int }{
		{0, 7}, {1, 1}, {3, 7}, {13, 8}, {64, 10}, {5, 1024}, {784, 10},
	} {
		x := normals(rng, c.in*LaneWidth)
		w := normals(rng, c.in*c.out)
		y := normals(rng, c.out*LaneWidth)
		for live := 1; live <= LaneWidth; live++ {
			checkDenseLanes(t, y, x, w, live)
		}
	}
}

// TestDenseLanesPanics pins the argument validation.
func TestDenseLanesPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	ok := func() ([]float64, []float64, []float64) {
		return make([]float64, 2*LaneWidth), make([]float64, 3*LaneWidth), make([]float64, 6)
	}
	mustPanic("short y", func() {
		_, x, w := ok()
		DenseLanesInto(make([]float64, 8), x, w, 1)
	})
	mustPanic("ragged x", func() {
		y, _, w := ok()
		DenseLanesInto(y, make([]float64, LaneWidth+1), w, 1)
	})
	mustPanic("w/x mismatch", func() {
		y, x, _ := ok()
		DenseLanesInto(y, x, make([]float64, 5), 1)
	})
	mustPanic("zero live", func() {
		y, x, w := ok()
		DenseLanesInto(y, x, w, 0)
	})
	mustPanic("live above width", func() {
		y, x, w := ok()
		DenseLanesInto(y, x, w, LaneWidth+1)
	})
}

// FuzzDenseLanes pins the kernels to the scalar reference over fuzzed
// shapes, live counts and raw float64 bit patterns (signed zeros,
// subnormals, infinities and NaNs included). Values are read from data
// eight bytes at a time, cycling when it runs out.
func FuzzDenseLanes(f *testing.F) {
	f.Add(uint8(3), uint8(10), uint8(5), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(8), uint8(64), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(17), uint8(1), uint8(9), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00})
	f.Fuzz(func(t *testing.T, in, out, live uint8, data []byte) {
		nin, nout := int(in%40), int(out%40)
		nlive := 1 + int(live)%LaneWidth
		words := len(data) / 8
		k := 0
		next := func() float64 {
			if words == 0 {
				return 0
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*(k%words):]))
			k++
			return v
		}
		fill := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = next()
			}
			return v
		}
		x, w, y := fill(nin*LaneWidth), fill(nin*nout), fill(nout*LaneWidth)
		checkDenseLanes(t, y, x, w, nlive)
	})
}

func BenchmarkDenseLanes(b *testing.B) {
	const in, out = 784, 1024
	rng := rand.New(rand.NewSource(2))
	x := normals(rng, in*LaneWidth)
	w := normals(rng, in*out)
	y := make([]float64, out*LaneWidth)
	for _, live := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				DenseLanesInto(y, x, w, live)
			}
		})
	}
}
