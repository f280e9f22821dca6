package crossbar

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"einsteinbarrier/internal/device"
)

// FuzzInjectFaults drives fault injection with arbitrary rates and
// seeds and checks the structural invariants the lifetime loop relies
// on:
//
//   - the reported flipped count is exactly |mask ∧ (programmed ⊕
//     stuckState)| and FaultCount is the mask popcount;
//   - re-applying the stored mask is idempotent: the effective bits
//     never move, and on an ideal (noise-free) array the analog planes
//     are bit-identical too (with noise on, applyFaults legitimately
//     re-draws the stuck cells' programming variability);
//   - Reprogram (the recalibration write pass) preserves the defect
//     population bit for bit and re-injecting the same model returns
//     the same flipped count.
//
// The seed corpus pins the TestFaultsSurviveReprogramming cases.
func FuzzInjectFaults(f *testing.F) {
	f.Add(0.1, 0.0, int64(2), int64(6))
	f.Add(0.03, 0.03, int64(4), int64(4))
	f.Add(0.0, 0.0, int64(0), int64(0))
	f.Add(0.5, 0.5, int64(9), int64(1))

	f.Fuzz(func(t *testing.T, onRate, offRate float64, faultSeed, progSeed int64) {
		for _, ideal := range []bool{true, false} {
			fuzzInjectFaults(t, onRate, offRate, faultSeed, progSeed, ideal)
		}
	})
}

func fuzzInjectFaults(t *testing.T, onRate, offRate float64, faultSeed, progSeed int64, ideal bool) {
	cfg := smallConfig(device.EPCM, ideal, progSeed)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(progSeed))
	if err := arr.Program(randomMatrix(rng, cfg.Rows, cfg.Cols)); err != nil {
		t.Fatal(err)
	}

	fm := FaultModel{StuckOnRate: onRate, StuckOffRate: offRate, Seed: faultSeed}
	flipped, err := arr.InjectFaults(fm)
	if fm.Validate() != nil || math.IsNaN(onRate) || math.IsNaN(offRate) {
		if err == nil {
			t.Fatalf("invalid model %+v accepted", fm)
		}
		return
	}
	if err != nil {
		t.Fatalf("valid model %+v rejected: %v", fm, err)
	}

	// Counting invariants, recomputed independently word-wise.
	wantFlipped, wantFaults := 0, 0
	pw, mw, sw := arr.programmed.Words(), arr.stuckMask.Words(), arr.stuckState.Words()
	for i, m := range mw {
		wantFlipped += bits.OnesCount64(m & (pw[i] ^ sw[i]))
		wantFaults += bits.OnesCount64(m)
	}
	if flipped != wantFlipped {
		t.Fatalf("flipped = %d, mask says %d", flipped, wantFlipped)
	}
	if arr.faultCount != wantFaults {
		t.Fatalf("FaultCount = %d, mask popcount %d", arr.faultCount, wantFaults)
	}

	snapshot := func() ([]float64, []float64, []uint64) {
		return append([]float64(nil), arr.sig...),
			append([]float64(nil), arr.prog...),
			append([]uint64(nil), arr.effective.Words()...)
	}
	eq := func(what string, a, b []float64) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("ideal=%v: %s plane diverged at %d: %g != %g", ideal, what, i, a[i], b[i])
			}
		}
	}

	// Re-applying the stored mask must not change the logical content;
	// on an ideal array the analog planes are exact too.
	sig0, prog0, eff0 := snapshot()
	arr.applyFaults()
	sig1, prog1, eff1 := snapshot()
	for i := range eff0 {
		if eff0[i] != eff1[i] {
			t.Fatalf("ideal=%v: effective bits diverged at word %d", ideal, i)
		}
	}
	if ideal {
		eq("sig", sig0, sig1)
		eq("prog", prog0, prog1)
	}

	// The recalibration write pass keeps the defect population.
	arr.Reprogram()
	_, _, eff2 := snapshot()
	for i := range eff0 {
		if eff0[i] != eff2[i] {
			t.Fatalf("ideal=%v: Reprogram changed effective bits at word %d", ideal, i)
		}
	}
	if arr.faultCount != wantFaults {
		t.Fatalf("Reprogram changed FaultCount: %d != %d", arr.faultCount, wantFaults)
	}
	again, err := arr.InjectFaults(fm)
	if err != nil || again != flipped {
		t.Fatalf("re-injection not reproducible: %d/%v vs %d", again, err, flipped)
	}
}
