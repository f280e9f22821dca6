package crossbar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *bitops.Matrix {
	m := bitops.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, rng.Intn(2) == 1)
		}
	}
	return m
}

func randomVector(rng *rand.Rand, n int) *bitops.Vector {
	v := bitops.NewVector(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			v.Set(i)
		}
	}
	return v
}

func smallConfig(tech device.Technology, ideal bool, seed int64) Config {
	cfg := DefaultConfig(tech)
	cfg.Rows, cfg.Cols = 64, 32
	cfg.ADCBits = 7
	cfg.Ideal = ideal
	cfg.Seed = seed
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(device.EPCM).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Rows: 0, Cols: 4, ColumnsPerADC: 1, ADCBits: 8},
		{Rows: 4, Cols: 0, ColumnsPerADC: 1, ADCBits: 8},
		{Rows: 4, Cols: 4, ColumnsPerADC: 0, ADCBits: 8},
		{Rows: 4, Cols: 4, ColumnsPerADC: 1, ADCBits: 0},
		{Rows: 1024, Cols: 4, ColumnsPerADC: 1, ADCBits: 8}, // ADC too narrow
	}
	for i, cfg := range bad {
		cfg.Tech = device.EPCM
		cfg.EPCM = device.DefaultEPCMParams()
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestIdealVMMMatchesAndPopcount(t *testing.T) {
	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		arr, err := NewArray(smallConfig(tech, true, 0))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		m := randomMatrix(rng, arr.cfg.Rows, arr.cfg.Cols)
		if err := arr.Program(m); err != nil {
			t.Fatal(err)
		}
		x := randomVector(rng, arr.cfg.Rows)
		got, err := arr.VMMInto(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < arr.cfg.Cols; c++ {
			want := bitops.AndPopcount(x, m.Col(c))
			if got[c] != want {
				t.Fatalf("%v col %d: got %d, want %d", tech, c, got[c], want)
			}
		}
	}
}

// TestTacitMapColumnOnArray programs [w ; ¬w] into a column, drives
// [x ; ¬x], and checks the ADC reads Popcount(XNOR(x,w)) — the analog
// realization of the identity proven in bitops.
func TestTacitMapColumnOnArray(t *testing.T) {
	cfg := smallConfig(device.EPCM, false, 77) // noisy, default params
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	m := cfg.Rows / 2
	layout := bitops.NewMatrix(cfg.Rows, cfg.Cols)
	weights := make([]*bitops.Vector, cfg.Cols)
	for c := 0; c < cfg.Cols; c++ {
		w := randomVector(rng, m)
		weights[c] = w
		col := bitops.Concat(w, w.Not())
		for r := 0; r < cfg.Rows; r++ {
			layout.Set(r, c, col.Get(r))
		}
	}
	if err := arr.Program(layout); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := randomVector(rng, m)
		counts, err := arr.VMMInto(bitops.Concat(x, x.Not()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cfg.Cols; c++ {
			want := bitops.XnorPopcount(x, weights[c])
			if counts[c] != want {
				t.Fatalf("trial %d col %d: got %d, want %d (noise broke decode)",
					trial, c, counts[c], want)
			}
		}
	}
}

func TestVMMInputLengthMismatch(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	if _, err := arr.VMMInto(bitops.NewVector(3), nil); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestProgramDimensionMismatch(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	if err := arr.Program(bitops.NewMatrix(1, 1)); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestVMMStatsAccounting(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	x := bitops.NewVector(arr.cfg.Rows)
	x.Set(0)
	x.Set(5)
	x.Set(10)
	if _, err := arr.VMMInto(x, nil); err != nil {
		t.Fatal(err)
	}
	s := arr.Stats()
	if s.VMMOps != 1 || s.RowActivations != 3 || s.DACConversions != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ADCConversions != int64(arr.cfg.Cols) {
		t.Fatalf("ADC conversions = %d, want %d", s.ADCConversions, arr.cfg.Cols)
	}
	arr.ResetStats()
	if arr.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestMMMRequiresOPCM(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	if _, err := arr.MMMInto([]*bitops.Vector{bitops.NewVector(arr.cfg.Rows)}, nil); err == nil {
		t.Fatal("expected error: MMM on ePCM")
	}
}

func TestMMMEmptyAndMismatchedInputs(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.OPCM, true, 0))
	if _, err := arr.MMMInto(nil, nil); err == nil {
		t.Fatal("expected error for empty inputs")
	}
	if _, err := arr.MMMInto([]*bitops.Vector{bitops.NewVector(1)}, nil); err == nil {
		t.Fatal("expected error for wrong length")
	}
}

func TestMMMMatchesPerVectorVMM(t *testing.T) {
	// With realistic (default) noise and crosstalk the K-wavelength MMM
	// must decode the same counts as K independent VMMs.
	cfg := smallConfig(device.OPCM, false, 5)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	const k = 8
	inputs := make([]*bitops.Vector, k)
	for i := range inputs {
		inputs[i] = randomVector(rng, cfg.Rows)
	}
	got, err := arr.MMMInto(inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		for c := 0; c < cfg.Cols; c++ {
			want := bitops.AndPopcount(in, m.Col(c))
			if got[i][c] != want {
				t.Fatalf("λ%d col %d: got %d, want %d", i, c, got[i][c], want)
			}
		}
	}
	s := arr.Stats()
	if s.VMMOps != 1 {
		t.Fatalf("MMM must count as one crossbar activation, got %d", s.VMMOps)
	}
	if s.WavelengthOps != int64(k*cfg.Cols) {
		t.Fatalf("WavelengthOps = %d", s.WavelengthOps)
	}
}

func TestMMMHeavyCrosstalkCorruptsDecode(t *testing.T) {
	// Sanity: the crosstalk model must actually do something — at an
	// absurd -3 dB floor with 16 wavelengths, decodes should break.
	cfg := smallConfig(device.OPCM, false, 5)
	cfg.OPCM.CrossTalkDB = -3
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	_ = arr.Program(m)
	inputs := make([]*bitops.Vector, 16)
	for i := range inputs {
		inputs[i] = randomVector(rng, cfg.Rows)
	}
	got, err := arr.MMMInto(inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	for i, in := range inputs {
		for c := 0; c < cfg.Cols; c++ {
			if got[i][c] != bitops.AndPopcount(in, m.Col(c)) {
				errors++
			}
		}
	}
	if errors == 0 {
		t.Fatal("expected decode errors under -3 dB crosstalk")
	}
}

func TestDriftedArrayStillDecodes(t *testing.T) {
	// One hour of drift must not break binary decoding (the read window
	// is 100×; drift shrinks G_off further, which only helps).
	cfg := smallConfig(device.EPCM, false, 11)
	arr, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	_ = arr.Program(m)
	arr.Age(3600)
	x := randomVector(rng, cfg.Rows)
	got, err := arr.VMMInto(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cols; c++ {
		if got[c] != bitops.AndPopcount(x, m.Col(c)) {
			t.Fatalf("drifted decode wrong at col %d", c)
		}
	}
}

// Property: for arbitrary seeds and small random layouts, the noisy
// ePCM array decodes exactly (default parameters are within the binary
// robustness regime — the paper's §II-C premise).
func TestNoisyDecodeExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig(device.EPCM, false, seed)
		arr, err := NewArray(cfg)
		if err != nil {
			return false
		}
		m := randomMatrix(rng, cfg.Rows, cfg.Cols)
		if err := arr.Program(m); err != nil {
			return false
		}
		x := randomVector(rng, cfg.Rows)
		got, err := arr.VMMInto(x, nil)
		if err != nil {
			return false
		}
		for c := 0; c < cfg.Cols; c++ {
			if got[c] != bitops.AndPopcount(x, m.Col(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestADCStepsPerVMM(t *testing.T) {
	cfg := smallConfig(device.EPCM, true, 0)
	cfg.ColumnsPerADC = 8
	arr, _ := NewArray(cfg)
	if arr.ADCStepsPerVMM() != 8 {
		t.Fatalf("ADCStepsPerVMM = %d", arr.ADCStepsPerVMM())
	}
}

func TestProgrammedRoundTrip(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	rng := rand.New(rand.NewSource(1))
	m := randomMatrix(rng, arr.cfg.Rows, arr.cfg.Cols)
	_ = arr.Program(m)
	got := arr.programmed
	for r := 0; r < m.Rows(); r++ {
		if !got.Row(r).Equal(m.Row(r)) {
			t.Fatal("Programmed round trip failed")
		}
	}
}
