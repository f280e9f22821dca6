package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
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

func testArrayConfig(tech device.Technology) crossbar.Config {
	cfg := crossbar.DefaultConfig(tech)
	cfg.Rows, cfg.Cols = 64, 16
	cfg.ADCBits = 7
	cfg.Seed = 99
	return cfg
}

func testDiffConfig() crossbar.DiffConfig {
	return crossbar.DiffConfig{
		Rows: 24, Cols: 40,
		EPCM: device.DefaultEPCMParams(),
		Seed: 99,
	}
}

func TestPlanTacitGeometry(t *testing.T) {
	p, err := PlanTacit(100, 70, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.BitsPerTile != 32 {
		t.Fatalf("BitsPerTile = %d, want 32", p.BitsPerTile)
	}
	if p.RowTiles != 3 { // ceil(70/32)
		t.Fatalf("RowTiles = %d, want 3", p.RowTiles)
	}
	if p.ColTiles != 7 { // ceil(100/16)
		t.Fatalf("ColTiles = %d, want 7", p.ColTiles)
	}
	if p.Tiles() != 21 {
		t.Fatalf("Tiles = %d", p.Tiles())
	}
	if p.SerialStepsPerInput() != 1 {
		t.Fatal("TacitMap critical path must be 1 step")
	}
	if p.SingleArrayStepsPerInput() != 21 {
		t.Fatalf("single-array steps = %d", p.SingleArrayStepsPerInput())
	}
	if p.DigitalAddsPerInput() != 100*2 {
		t.Fatalf("DigitalAdds = %d", p.DigitalAddsPerInput())
	}
}

func TestPlanTacitADCAndDACCounts(t *testing.T) {
	p, _ := PlanTacit(20, 70, 64, 16)
	// ColTiles = 2: first full (16 cols), last 4 cols → 20 per row tile ×3.
	if got := p.ADCConversionsPerInput(); got != 60 {
		t.Fatalf("ADC conversions = %d, want 60", got)
	}
	// Row tiles carry 32, 32, 6 bits → (64+64+12) DACs × 2 col tiles.
	if got := p.DACConversionsPerInput(); got != 280 {
		t.Fatalf("DAC conversions = %d, want 280", got)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := PlanTacit(0, 1, 64, 16); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := PlanTacit(1, 1, 1, 16); err == nil {
		t.Fatal("expected error for 1-row array")
	}
	if _, err := PlanCust(0, 1, 8, 8); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := PlanCust(1, 1, 0, 8); err == nil {
		t.Fatal("expected error for 0-row array")
	}
}

func TestPlanCustGeometry(t *testing.T) {
	p, err := PlanCust(50, 100, 24, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p.RowTiles != 3 || p.ColTiles != 3 {
		t.Fatalf("tiles = %dx%d", p.RowTiles, p.ColTiles)
	}
	if p.RowActivationsPerInput() != 150 {
		t.Fatalf("row activations = %d", p.RowActivationsPerInput())
	}
	if p.SerialStepsPerInput() != 24 {
		t.Fatalf("serial steps = %d", p.SerialStepsPerInput())
	}
	if p.DigitalAddsPerInput() != 100 {
		t.Fatalf("digital adds = %d", p.DigitalAddsPerInput())
	}
}

func TestTheoreticalSpeedup(t *testing.T) {
	// Paper §III: same device, TacitMap up to n× faster. For n ≤ rows the
	// speedup is exactly n.
	tp, _ := PlanTacit(20, 30, 64, 32)
	cp, _ := PlanCust(20, 30, 64, 32)
	if s := cp.SerialStepsPerInput() / tp.SerialStepsPerInput(); s != 20 {
		t.Fatalf("speedup = %d, want 20", s)
	}
}

func TestTacitExecuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Layer bigger than one tile in both dimensions: n=40 > 16 cols,
	// m=75 > 32 bits per tile.
	weights := randomMatrix(rng, 40, 75)
	mapped, err := MapTacit(weights, testArrayConfig(device.EPCM))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := randomVector(rng, 75)
		got, err := mapped.ExecuteInto(x, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := weights.XnorPopcountAllInto(x, nil)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d output %d: got %d, want %d", trial, j, got[j], want[j])
			}
		}
	}
}

func TestTacitExecuteBipolar(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	weights := randomMatrix(rng, 10, 20)
	mapped, err := MapTacit(weights, testArrayConfig(device.EPCM))
	if err != nil {
		t.Fatal(err)
	}
	x := randomVector(rng, 20)
	// Eq. (1): the bipolar dot is 2·popcount − m.
	pc, err := mapped.ExecuteInto(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := weights.BipolarMatVec(x)
	for j := range want {
		if got := 2*pc[j] - 20; got != want[j] {
			t.Fatalf("output %d: got %d, want %d", j, got, want[j])
		}
	}
}

func TestCustExecuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	// n=50 > 24 rows, m=100 > 40 logical cols: multi-tile both ways.
	weights := randomMatrix(rng, 50, 100)
	mapped, err := MapCust(weights, testDiffConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		x := randomVector(rng, 100)
		got, err := mapped.Execute(x)
		if err != nil {
			t.Fatal(err)
		}
		want := weights.XnorPopcountAllInto(x, nil)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d output %d: got %d, want %d", trial, j, got[j], want[j])
			}
		}
	}
}

// TestMappingsAgreeProperty is the paper's functional-equivalence claim:
// both mappings compute identical XNOR+Popcount results; only their cost
// differs.
func TestMappingsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(30), 1+rng.Intn(60)
		weights := randomMatrix(rng, n, m)
		tm, err := MapTacit(weights, testArrayConfig(device.EPCM))
		if err != nil {
			return false
		}
		cm, err := MapCust(weights, testDiffConfig())
		if err != nil {
			return false
		}
		x := randomVector(rng, m)
		a, err := tm.ExecuteInto(x, nil)
		if err != nil {
			return false
		}
		b, err := cm.Execute(x)
		if err != nil {
			return false
		}
		ref := weights.XnorPopcountAllInto(x, nil)
		for j := range ref {
			if a[j] != ref[j] || b[j] != ref[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestTacitMMMMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	weights := randomMatrix(rng, 30, 50)
	mapped, err := MapTacit(weights, testArrayConfig(device.OPCM))
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	xs := make([]*bitops.Vector, k)
	for i := range xs {
		xs[i] = randomVector(rng, 50)
	}
	got, err := mapped.ExecuteMMM(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		want := weights.XnorPopcountAllInto(x, nil)
		for j := range want {
			if got[i][j] != want[j] {
				t.Fatalf("λ%d output %d: got %d, want %d", i, j, got[i][j], want[j])
			}
		}
	}
}

func TestTacitMMMRequiresOPCM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weights := randomMatrix(rng, 4, 8)
	mapped, err := MapTacit(weights, testArrayConfig(device.EPCM))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.ExecuteMMM([]*bitops.Vector{randomVector(rng, 8)}); err == nil {
		t.Fatal("expected oPCM-required error")
	}
}

func TestExecuteErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	weights := randomMatrix(rng, 4, 8)
	tm, _ := MapTacit(weights, testArrayConfig(device.EPCM))
	if _, err := tm.ExecuteInto(bitops.NewVector(9), nil); err == nil {
		t.Fatal("expected input-length error (tacit)")
	}
	cm, _ := MapCust(weights, testDiffConfig())
	if _, err := cm.Execute(bitops.NewVector(9)); err == nil {
		t.Fatal("expected input-length error (cust)")
	}
	om, _ := MapTacit(weights, testArrayConfig(device.OPCM))
	if _, err := om.ExecuteMMM(nil); err == nil {
		t.Fatal("expected empty-inputs error")
	}
	if _, err := om.ExecuteMMM([]*bitops.Vector{bitops.NewVector(9)}); err == nil {
		t.Fatal("expected input-length error (MMM)")
	}
}

func TestStatsContrast(t *testing.T) {
	// The quantitative heart of §III: for the same layer and one input,
	// TacitMap performs Tiles() VMM activations while CustBinaryMap
	// performs n·ColTiles row activations.
	rng := rand.New(rand.NewSource(31))
	n, m := 48, 60
	weights := randomMatrix(rng, n, m)

	tm, err := MapTacit(weights, testArrayConfig(device.EPCM))
	if err != nil {
		t.Fatal(err)
	}
	tm.ResetStats()
	x := randomVector(rng, m)
	if _, err := tm.ExecuteInto(x, nil); err != nil {
		t.Fatal(err)
	}
	ts := tm.Stats()
	if ts.VMMOps != int64(tm.Plan().Tiles()) {
		t.Fatalf("tacit VMMOps = %d, want %d", ts.VMMOps, tm.Plan().Tiles())
	}

	cm, err := MapCust(weights, testDiffConfig())
	if err != nil {
		t.Fatal(err)
	}
	cm.ResetStats()
	if _, err := cm.Execute(x); err != nil {
		t.Fatal(err)
	}
	cs := cm.Stats()
	if cs.RowActivations != int64(cm.Plan().RowActivationsPerInput()) {
		t.Fatalf("cust RowActivations = %d, want %d",
			cs.RowActivations, cm.Plan().RowActivationsPerInput())
	}
	if cs.RowActivations <= ts.VMMOps {
		t.Fatal("baseline must need more serial crossbar operations than TacitMap")
	}
}

// TestCompactRect: the region-local layout helper returns the
// squarest rectangle covering the tile count within the mesh width.
func TestCompactRect(t *testing.T) {
	for _, tc := range []struct{ tiles, maxW, w, h int }{
		{1, 4, 1, 1}, {2, 4, 2, 1}, {3, 4, 2, 2}, {4, 4, 2, 2},
		{5, 4, 3, 2}, {9, 4, 3, 3}, {10, 4, 4, 3}, {13, 4, 4, 4},
		{10, 2, 2, 5}, // clamped to the mesh width
		{0, 4, 1, 1}, {3, 0, 1, 3},
	} {
		w, h := CompactRect(tc.tiles, tc.maxW)
		if w != tc.w || h != tc.h {
			t.Fatalf("CompactRect(%d,%d) = %dx%d, want %dx%d", tc.tiles, tc.maxW, w, h, tc.w, tc.h)
		}
		if tc.tiles > 0 && w*h < tc.tiles {
			t.Fatalf("CompactRect(%d,%d) = %dx%d does not cover", tc.tiles, tc.maxW, w, h)
		}
	}
}
