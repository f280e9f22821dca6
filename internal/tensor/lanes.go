package tensor

import "fmt"

// Batch-major float lanes: the software batch path carries up to
// LaneWidth samples side by side, with feature f of sample s stored at
// data[f*LaneWidth+s] — the float counterpart of packing 64 binary
// samples into one uint64 word. The stride is always LaneWidth, but a
// batch of n samples only pays for LaneSpan(n) lanes: the live count
// rounded up to laneGroup, one 512-bit register of float64s. Lanes at
// or above the span are never read or written; lanes between the live
// count and the span are computed like live ones from whatever they
// hold, and no consumer reads them.
//
// DenseLanesInto is a whole-layer kernel. The AVX-512 variant keeps a
// tile of 8 output neurons × 8 lanes in eight ZMM accumulators, so
// each feature costs one lane load, eight broadcast multiplies and
// eight independent adds — eight add chains in flight instead of one.
// Output counts not divisible by 8 finish with a 1×8 tile. There is no
// crossover to a different kernel at small batches: with the span cut
// to one lane group, a 1-lane batch costs about one per-sample pass.

// LaneWidth is the fixed sample-lane stride of the batch-major forward
// path (matches the 64-bit word width of the bit-packed layers).
const LaneWidth = 64

// laneGroup is the lane granularity of the float kernels: eight
// float64 lanes fill one 512-bit register.
const laneGroup = 8

// LaneSpan returns the lanes the float kernels process for live
// samples: live rounded up to a multiple of laneGroup.
func LaneSpan(live int) int {
	return (live + laneGroup - 1) &^ (laneGroup - 1)
}

// DenseLanesInto accumulates a dense layer over the first
// LaneSpan(live) lanes:
//
//	y[o*LaneWidth+s] += w[o*in+f] · x[f*LaneWidth+s]
//
// for every output o, feature f in ascending order, and lane s below
// the span, where in = len(x)/LaneWidth and out = len(y)/LaneWidth.
// Each lane performs one multiply then one add per feature, exactly
// the scalar DenseFP inner loop (no fused multiply-add), so every lane
// is bit-identical to the per-sample path on both the AVX-512 and the
// generic kernel. Lanes at or above the span are left untouched.
func DenseLanesInto(y, x, w []float64, live int) {
	if live < 1 || live > LaneWidth {
		panic(fmt.Sprintf("tensor: DenseLanesInto live lanes %d, want 1..%d", live, LaneWidth))
	}
	if len(y)%LaneWidth != 0 || len(x)%LaneWidth != 0 {
		panic(fmt.Sprintf("tensor: DenseLanesInto y length %d / x length %d not multiples of %d",
			len(y), len(x), LaneWidth))
	}
	in, out := len(x)/LaneWidth, len(y)/LaneWidth
	if len(w) != in*out {
		panic(fmt.Sprintf("tensor: DenseLanesInto w length %d, want %d×%d", len(w), out, in))
	}
	if in == 0 || out == 0 {
		return
	}
	denseLanesImpl(y, x, w, in, LaneSpan(live))
}

// denseLanesImpl is swapped to the AVX-512 kernel at init on capable
// amd64 hosts; tests call denseLanesGeneric directly to pin both paths
// against the scalar reference. span is a multiple of laneGroup.
var denseLanesImpl = denseLanesGeneric

func denseLanesGeneric(y, x, w []float64, in, span int) {
	for o := 0; o < len(y)/LaneWidth; o++ {
		a := y[o*LaneWidth : o*LaneWidth+span]
		for f, wf := range w[o*in : (o+1)*in] {
			xf := x[f*LaneWidth : f*LaneWidth+span]
			for s := range a {
				a[s] += wf * xf[s]
			}
		}
	}
}
