package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"einsteinbarrier/internal/device"
)

// Reprogram is the serving-time recalibration primitive: its contract
// is that the post-recalibration planes are a pure function of (seed,
// stored bits) — recalibrating once or a hundred times lands on
// bit-identical analog state — and that drift age resets while stuck-at
// defects survive.

func TestReprogramIdempotentPlanes(t *testing.T) {
	cfg := smallConfig(device.EPCM, false, 4242) // noisy
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	set1, reset1 := arr.Reprogram()
	sig := append([]float64(nil), arr.sig...)
	prog := append([]float64(nil), arr.prog...)
	set2, reset2 := arr.Reprogram()
	if set1 != set2 || reset1 != reset2 {
		t.Fatalf("write counts changed across recalibrations: (%d,%d) vs (%d,%d)",
			set1, reset1, set2, reset2)
	}
	want := int64(0)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if m.Row(r).Get(c) {
				want++
			}
		}
	}
	if set1 != want || reset1 != int64(cfg.Rows*cfg.Cols)-want {
		t.Fatalf("counts (%d,%d) disagree with stored bits (%d set of %d)",
			set1, reset1, want, cfg.Rows*cfg.Cols)
	}
	for i := range sig {
		if arr.sig[i] != sig[i] || arr.prog[i] != prog[i] {
			t.Fatalf("plane slot %d not bit-identical after second Reprogram", i)
		}
	}
}

func TestReprogramResetsDriftAge(t *testing.T) {
	cfg := smallConfig(device.EPCM, false, 991)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if err := arr.Program(randomMatrix(rng, cfg.Rows, cfg.Cols)); err != nil {
		t.Fatal(err)
	}
	arr.Reprogram() // canonical recalibrated planes
	sig := append([]float64(nil), arr.sig...)

	arr.Age(1e6)
	drifted := false
	for i := range sig {
		if arr.sig[i] != sig[i] {
			drifted = true
			break
		}
	}
	if !drifted {
		t.Fatal("ageing 1e6 s left every signal untouched — drift model dead?")
	}
	arr.Reprogram()
	for i := range sig {
		if arr.sig[i] != sig[i] {
			t.Fatalf("slot %d: drift survived recalibration", i)
		}
		if arr.age[i] != 0 {
			t.Fatalf("slot %d: age %g not reset", i, arr.age[i])
		}
	}

	// Age memoizes DriftFactor on the last age it saw. Fault injection
	// re-programs the stuck cells, so two injections between ageing
	// steps leave three age classes interleaved across the plane; every
	// slot must still equal its own per-cell drift evaluation bit for
	// bit.
	arr.Age(30)
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.1, StuckOffRate: 0.1, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	arr.Age(700)
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.1, StuckOffRate: 0.1, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	arr.Age(5e4)
	ages := map[float64]bool{}
	v := cfg.EPCM.ReadVoltage
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			i := r*cfg.Cols + c
			ages[arr.age[i]] = true
			want := arr.prog[i] * v
			if !arr.effective.Row(r).Get(c) {
				want = arr.prog[i] * cfg.EPCM.DriftFactor(arr.age[i]) * v
			}
			if math.Float64bits(arr.sig[i]) != math.Float64bits(want) {
				t.Fatalf("slot %d (age %g): sig %x, per-cell drift %x",
					i, arr.age[i], math.Float64bits(arr.sig[i]), math.Float64bits(want))
			}
		}
	}
	if len(ages) != 3 {
		t.Fatalf("%d distinct ages after two fault injections, want 3", len(ages))
	}
}

func TestReprogramKeepsFaultsAndCountsWrites(t *testing.T) {
	cfg := smallConfig(device.EPCM, false, 55)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if err := arr.Program(randomMatrix(rng, cfg.Rows, cfg.Cols)); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.05, StuckOffRate: 0.05, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	eff := arr.EffectiveBits()
	faults := arr.faultCount
	before := arr.Stats().CellWrites
	arr.Reprogram()
	if got := arr.faultCount; got != faults {
		t.Fatalf("fault count changed %d → %d across recalibration", faults, got)
	}
	after := arr.EffectiveBits()
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if eff.Row(r).Get(c) != after.Row(r).Get(c) {
				t.Fatalf("effective bit (%d,%d) changed across recalibration", r, c)
			}
		}
	}
	wrote := arr.Stats().CellWrites - before
	if wrote < int64(cfg.Rows*cfg.Cols) {
		t.Fatalf("recalibration wrote %d cells, want ≥ %d", wrote, cfg.Rows*cfg.Cols)
	}
}
