package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

func TestFaultModelValidate(t *testing.T) {
	bad := []FaultModel{
		{StuckOnRate: -0.1},
		{StuckOffRate: -0.1},
		{StuckOnRate: 0.6, StuckOffRate: 0.6},
		{StuckOnRate: math.NaN()},
		{StuckOffRate: math.NaN()},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if err := (FaultModel{StuckOnRate: 0.01, StuckOffRate: 0.01}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInjectFaultsCounts(t *testing.T) {
	cfg := smallConfig(device.EPCM, true, 0)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	flipped, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.02, StuckOffRate: 0.02, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.Rows * cfg.Cols
	count := arr.faultCount
	// ~4% of cells defective; roughly half change logical content.
	if count < total/50 || count > total/10 {
		t.Fatalf("fault count %d implausible for 4%% of %d", count, total)
	}
	if flipped <= 0 || flipped > count {
		t.Fatalf("flipped = %d of %d faults", flipped, count)
	}
}

func TestFaultedVMMMatchesEffectiveBits(t *testing.T) {
	// The analog result must follow the *effective* (faulty) bits, not
	// the programmed ones.
	cfg := smallConfig(device.EPCM, true, 0)
	arr, _ := NewArray(cfg)
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	_ = arr.Program(m)
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.05, StuckOffRate: 0.05, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	eff := arr.EffectiveBits()
	x := randomVector(rng, cfg.Rows)
	got, err := arr.VMMInto(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	mismatchProgrammed := false
	for c := 0; c < cfg.Cols; c++ {
		if got[c] != bitops.AndPopcount(x, eff.Col(c)) {
			t.Fatalf("col %d disagrees with effective bits", c)
		}
		if got[c] != bitops.AndPopcount(x, m.Col(c)) {
			mismatchProgrammed = true
		}
	}
	if !mismatchProgrammed {
		t.Fatal("10% defects should visibly corrupt some column")
	}
}

func TestFaultsSurviveReprogramming(t *testing.T) {
	cfg := smallConfig(device.EPCM, true, 0)
	arr, _ := NewArray(cfg)
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 0.1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	before := arr.faultCount
	rng := rand.New(rand.NewSource(6))
	_ = arr.Program(randomMatrix(rng, cfg.Rows, cfg.Cols))
	if arr.faultCount != before {
		t.Fatal("reprogramming must not heal defects")
	}
	// Every stuck-ON cell must read 1 regardless of programming.
	eff := arr.EffectiveBits()
	zero := bitops.NewMatrix(cfg.Rows, cfg.Cols)
	_ = arr.Program(zero)
	eff2 := arr.EffectiveBits()
	onCells := 0
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			if eff2.Row(r).Get(c) {
				onCells++
			}
		}
	}
	if onCells != arr.faultCount {
		// all faults were stuck-ON in this model
		t.Fatalf("expected %d stuck-ON survivors, got %d", arr.faultCount, onCells)
	}
	_ = eff
}

func TestMaxPopcountErrorBound(t *testing.T) {
	// The headline tolerance argument: with f defects per column, any
	// popcount deviates by at most f.
	cfg := smallConfig(device.EPCM, true, 0)
	arr, _ := NewArray(cfg)
	rng := rand.New(rand.NewSource(8))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	_ = arr.Program(m)
	_, _ = arr.InjectFaults(FaultModel{StuckOnRate: 0.03, StuckOffRate: 0.03, Seed: 4})
	bound := arr.MaxPopcountError()
	x := randomVector(rng, cfg.Rows)
	got, _ := arr.VMMInto(x, nil)
	worst := 0
	for c := 0; c < cfg.Cols; c++ {
		ideal := bitops.AndPopcount(x, m.Col(c))
		if d := int(math.Abs(float64(got[c] - ideal))); d > worst {
			worst = d
		}
	}
	if worst > bound {
		t.Fatalf("observed popcount error %d exceeds bound %d", worst, bound)
	}
}

func TestInjectFaultsRejectsBadModel(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	if _, err := arr.InjectFaults(FaultModel{StuckOnRate: 2}); err == nil {
		t.Fatal("expected validation error")
	}
}
