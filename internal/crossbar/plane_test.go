package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

// The flat planes must reproduce the per-cell-object device model
// exactly: programming a seeded array draws the same RNG stream, in the
// same row-major order, as constructing one device.EPCMCell/OPCMCell
// after another.

func TestEPCMPlaneMatchesCellStream(t *testing.T) {
	cfg := smallConfig(device.EPCM, false, 1234) // noisy
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	// Replay: NewArray programs the all-zero matrix first, then Program
	// draws for every cell of m — all from the same seeded stream.
	ref := rand.New(rand.NewSource(cfg.Seed))
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			device.NewEPCMCell(cfg.EPCM, false, ref) // NewArray's defined-state pass
		}
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			cell := device.NewEPCMCell(cfg.EPCM, m.Row(r).Get(c), ref)
			idx := r*cfg.Cols + c
			if got, want := arr.prog[idx], cell.Conductance(nil); got != want {
				t.Fatalf("cell (%d,%d): plane conductance %g, cell %g", r, c, got, want)
			}
			if got, want := arr.sig[idx], cell.ReadCurrent(nil); got != want {
				t.Fatalf("cell (%d,%d): plane signal %g, cell current %g", r, c, got, want)
			}
		}
	}
}

func TestOPCMPlaneMatchesCellStream(t *testing.T) {
	cfg := smallConfig(device.OPCM, false, 777)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < cfg.Rows*cfg.Cols; i++ {
		device.NewOPCMCell(cfg.OPCM, false, ref)
	}
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			cell := device.NewOPCMCell(cfg.OPCM, m.Row(r).Get(c), ref)
			if got, want := arr.prog[r*cfg.Cols+c], cell.Transmittance(nil); got != want {
				t.Fatalf("cell (%d,%d): plane transmittance %g, cell %g", r, c, got, want)
			}
		}
	}
}

func TestAgedPlaneMatchesDriftedCells(t *testing.T) {
	// After Age, the signal plane must hold exactly what per-cell drift
	// evaluation would return (drift folded in once, not per read).
	cfg := smallConfig(device.EPCM, true, 0)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	arr.Age(1800)
	arr.Age(1800) // accumulates like per-cell Age calls
	p := cfg.EPCM
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			cell := device.NewEPCMCell(p, m.Row(r).Get(c), nil)
			cell.Age(1800)
			cell.Age(1800)
			if got, want := arr.sig[r*cfg.Cols+c], cell.ReadCurrent(nil); got != want {
				t.Fatalf("aged cell (%d,%d): plane %g, cell %g", r, c, got, want)
			}
		}
	}
}

func TestNegativeAgePanics(t *testing.T) {
	for _, seconds := range []float64{-1, math.NaN(), math.Inf(-1)} {
		func() {
			arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
			defer func() {
				if recover() == nil {
					t.Fatalf("Age(%g): expected panic", seconds)
				}
			}()
			arr.Age(seconds)
		}()
	}
}

// Zero-allocation regression pins for the analog hot paths (ISSUE 2
// acceptance: VMMInto / MMMInto must be allocation-free in steady
// state, including under noise).
func TestVMMIntoZeroAllocs(t *testing.T) {
	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		arr, err := NewArray(smallConfig(tech, false, 3)) // noisy
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		if err := arr.Program(randomMatrix(rng, arr.cfg.Rows, arr.cfg.Cols)); err != nil {
			t.Fatal(err)
		}
		x := randomVector(rng, arr.cfg.Rows)
		dst := make([]int, arr.cfg.Cols)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := arr.VMMInto(x, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v VMMInto allocates %g times per run", tech, allocs)
		}
	}
}

func TestMMMIntoZeroAllocs(t *testing.T) {
	arr, err := NewArray(smallConfig(device.OPCM, false, 6))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	if err := arr.Program(randomMatrix(rng, arr.cfg.Rows, arr.cfg.Cols)); err != nil {
		t.Fatal(err)
	}
	const k = 4
	inputs := make([]*bitops.Vector, k)
	dst := make([][]int, k)
	for i := range inputs {
		inputs[i] = randomVector(rng, arr.cfg.Rows)
		dst[i] = make([]int, arr.cfg.Cols)
	}
	// Warm the K-sized scratch once, then pin.
	if _, err := arr.MMMInto(inputs, dst); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := arr.MMMInto(inputs, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("MMMInto allocates %g times per run", allocs)
	}
}

func TestRowXnorPopcountZeroAllocs(t *testing.T) {
	arr, err := NewDiffArray(DiffConfig{Rows: 64, Cols: 96, EPCM: device.DefaultEPCMParams(), Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	if err := arr.Program(randomMatrix(rng, 64, 96)); err != nil {
		t.Fatal(err)
	}
	x := randomVector(rng, 96)
	out := bitops.NewVector(96)
	allocs := testing.AllocsPerRun(100, func() {
		bits, err := arr.ReadRowXnorInto(5, x, out)
		if err != nil {
			t.Fatal(err)
		}
		_ = bits.Popcount()
	})
	if allocs != 0 {
		t.Fatalf("row XNOR+popcount allocates %g times per run", allocs)
	}
}

// Deterministic fault reapplication: reprogramming a faulty array twice
// from the same state must leave identical planes — the old map-ordered
// reapplication drew the stuck cells' variability in nondeterministic
// order.
func TestFaultReapplicationDeterministic(t *testing.T) {
	mk := func() *Array {
		cfg := smallConfig(device.EPCM, false, 11)
		arr, err := NewArray(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		if err := arr.Program(randomMatrix(rng, cfg.Rows, cfg.Cols)); err != nil {
			t.Fatal(err)
		}
		if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.02, StuckOffRate: 0.02, Seed: 13}); err != nil {
			t.Fatal(err)
		}
		rng2 := rand.New(rand.NewSource(12))
		if err := arr.Program(randomMatrix(rng2, cfg.Rows, cfg.Cols)); err != nil {
			t.Fatal(err)
		}
		return arr
	}
	a, b := mk(), mk()
	for i := range a.prog {
		if a.prog[i] != b.prog[i] || a.sig[i] != b.sig[i] {
			t.Fatalf("plane %d differs across identical runs", i)
		}
	}
}
