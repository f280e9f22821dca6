package sim

import (
	"encoding/binary"
	"math"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/energy"
)

// FuzzResClock cross-checks the arena calendar (binary-search
// earliestFree, insertion-hint book) against a naive reference that
// keeps spans in insertion order and resolves conflicts by O(n²)
// fixpoint interval scanning. Both must agree bit-for-bit on every
// booked start, and the arena's sorted/non-overlapping invariant must
// hold after every insertion — this is the structure every engine
// schedule is built on.
//
// Input encoding: little-endian float64 pairs (ready, dur), each pair
// one booking request. Out-of-range values are clamped/skipped rather
// than rejected so the fuzzer explores freely.
func FuzzResClock(f *testing.F) {
	// Seed with the request stream of a real run: replay the busiest
	// resource calendar of a CNN-L B=256 EinsteinBarrier schedule as
	// (start, duration) bookings, plus hand-picked degenerate cases.
	f.Add(seedFromRun(f))
	f.Add(encodeReqs([][2]float64{{0, 10}, {0, 10}, {5, 3}, {100, 1}, {2, 200}}))
	f.Add(encodeReqs([][2]float64{{50, 5}, {10, 5}, {30, 5}, {10, 5}, {0, 100}}))
	f.Add(encodeReqs([][2]float64{{1e12, 1}, {0, 1e12}, {1e12 - 1, 2}}))
	// earliestFree's tail check: a query on an empty segment, one at
	// exactly the last span's end, one an ulp below it, and the same
	// after an out-of-order insert (which must not move the tail).
	f.Add(encodeReqs([][2]float64{{7, 2}}))
	f.Add(encodeReqs([][2]float64{{0, 10}, {10, 5}}))
	f.Add(encodeReqs([][2]float64{{0, 10}, {math.Nextafter(10, 0), 5}}))
	f.Add(encodeReqs([][2]float64{{10, 5}, {0, 3}, {15, 1}, {math.Nextafter(16, 0), 2}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256 // keeps the O(n²) reference fast enough to explore
		nOps := len(data) / 16
		if nOps > maxOps {
			nOps = maxOps
		}
		if nOps == 0 {
			return
		}

		var cal vcCal
		cal.grow(0)
		cal.beginCount()
		cal.perSample[0] = 1
		cal.ensure(nOps) // room for nOps bookings on resource 0
		cal.reset()

		var ref []busySpan // insertion order, deliberately unsorted
		for i := 0; i < nOps; i++ {
			ready := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			dur := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			if math.IsNaN(ready) || math.IsInf(ready, 0) || ready < 0 || ready > 1e15 {
				continue
			}
			if math.IsNaN(dur) || math.IsInf(dur, 0) || dur <= 0 || dur > 1e12 {
				continue
			}

			got := cal.earliestFree(0, ready, dur)
			want := naiveEarliestFree(ref, ready, dur)
			if got != want {
				t.Fatalf("op %d: earliestFree(%v, %v) = %v, reference = %v",
					i, ready, dur, got, want)
			}
			if got+dur == got {
				// The duration underflows at this magnitude: booking would
				// create a zero-width span, which the engine cannot produce
				// (durations are ns-scale serialization times). The query
				// above was still cross-checked.
				continue
			}
			cal.book(0, got, dur)
			ref = append(ref, busySpan{s: want, e: want + dur})

			// The arena segment must stay sorted and non-overlapping —
			// earliestFree's binary search depends on it.
			seg := cal.arena[cal.seg[0].off : cal.seg[0].off+cal.seg[0].n]
			if len(seg) != len(ref) {
				t.Fatalf("op %d: %d spans in arena, %d booked", i, len(seg), len(ref))
			}
			for j := 1; j < len(seg); j++ {
				if seg[j].s < seg[j-1].e {
					t.Fatalf("op %d: spans %d,%d overlap or unsorted: [%v,%v) then [%v,%v)",
						i, j-1, j, seg[j-1].s, seg[j-1].e, seg[j].s, seg[j].e)
				}
			}
		}
	})
}

// naiveEarliestFree is the obviously-correct reference: scan the
// unsorted span list to fixpoint, pushing start past any overlap.
func naiveEarliestFree(spans []busySpan, ready, dur float64) float64 {
	start := ready
	for changed := true; changed; {
		changed = false
		for _, sp := range spans {
			if sp.s < start+dur && sp.e > start {
				start = sp.e
				changed = true
			}
		}
	}
	return start
}

func encodeReqs(reqs [][2]float64) []byte {
	out := make([]byte, 0, len(reqs)*16)
	for _, r := range reqs {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(r[0]))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r[1]))
		out = append(out, b[:]...)
	}
	return out
}

// seedFromRun replays the busiest bulk-channel resource of a real
// CNN-L B=256 schedule as a booking-request stream.
func seedFromRun(f *testing.F) []byte {
	f.Helper()
	s, err := New(arch.DefaultConfig(), energy.DefaultCostParams())
	if err != nil {
		f.Fatal(err)
	}
	m, err := bnn.Arch("CNN-L")
	if err != nil {
		f.Fatal(err)
	}
	c, err := compiler.Compile(m, arch.DefaultConfig(), arch.EinsteinBarrier)
	if err != nil {
		f.Fatal(err)
	}
	eng, err := s.NewEngine(c)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eng.RunBatch(256); err != nil {
		f.Fatal(err)
	}
	// Pick the resource with the most bookings across both channels.
	best, bestN := &eng.fb.fwd.cal, 0
	var bestR int32
	for _, cal := range []*vcCal{&eng.fb.fwd.cal, &eng.fb.bulk.cal} {
		for r, h := range cal.seg {
			if h.n > bestN {
				best, bestR, bestN = cal, int32(r), h.n
			}
		}
	}
	reqs := make([][2]float64, 0, bestN)
	h := best.seg[bestR]
	seg := best.arena[h.off : h.off+h.n]
	for _, sp := range seg {
		reqs = append(reqs, [2]float64{sp.s, sp.e - sp.s})
	}
	if len(reqs) > 256 {
		reqs = reqs[:256]
	}
	return encodeReqs(reqs)
}
