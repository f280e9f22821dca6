package tensor

import "einsteinbarrier/internal/cpu"

// denseLanesAVX512 is implemented in lanes_amd64.s: 8×8 tiles of
// output neurons × lanes held in Z0-Z7, then a 1×8 tile per leftover
// output, over groups lane groups of eight.
//
//go:noescape
func denseLanesAVX512(y, x, w *float64, in, out, groups int)

func denseLanesAsm(y, x, w []float64, in, span int) {
	denseLanesAVX512(&y[0], &x[0], &w[0], in, len(y)/LaneWidth, span/laneGroup)
}

func init() {
	if cpu.HasAVX512F {
		denseLanesImpl = denseLanesAsm
	}
}
