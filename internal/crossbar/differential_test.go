package crossbar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

func smallDiffConfig(ideal bool, seed int64) DiffConfig {
	return DiffConfig{
		Rows:  32,
		Cols:  48,
		EPCM:  device.DefaultEPCMParams(),
		Ideal: ideal,
		Seed:  seed,
	}
}

// rowPopcounts is the CustBinaryMap pass over every row: one word-line
// activation and PCSA sense per row, then a popcount of the sensed bits.
func rowPopcounts(arr *DiffArray, x *bitops.Vector) ([]int, error) {
	out := make([]int, arr.cfg.Rows)
	for r := range out {
		bits, err := arr.ReadRowXnorInto(r, x, nil)
		if err != nil {
			return nil, err
		}
		out[r] = bits.Popcount()
	}
	return out, nil
}

func TestDiffConfigValidate(t *testing.T) {
	if err := DefaultDiffConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DiffConfig{Rows: 0, Cols: 1, EPCM: device.DefaultEPCMParams()}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestReadRowXnorIdeal(t *testing.T) {
	arr, err := NewDiffArray(smallDiffConfig(true, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, arr.cfg.Rows, arr.cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	x := randomVector(rng, arr.cfg.Cols)
	for r := 0; r < arr.cfg.Rows; r++ {
		got, err := arr.ReadRowXnorInto(r, x, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := x.Xnor(m.Row(r))
		if !got.Equal(want) {
			t.Fatalf("row %d: PCSA read %s, want %s", r, got, want)
		}
	}
}

func TestAllRowsMatchesReference(t *testing.T) {
	// Noisy array with default parameters must still match the software
	// XNOR+Popcount — binary sensing is robust (paper §II-C).
	arr, err := NewDiffArray(smallDiffConfig(false, 21))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	m := randomMatrix(rng, arr.cfg.Rows, arr.cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	x := randomVector(rng, arr.cfg.Cols)
	got, err := rowPopcounts(arr, x)
	if err != nil {
		t.Fatal(err)
	}
	want := m.XnorPopcountAllInto(x, nil)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: got %d, want %d", r, got[r], want[r])
		}
	}
}

func TestDiffStatsSerialization(t *testing.T) {
	// The baseline's cost signature: n rows → n row activations, n·cols
	// PCSA senses. This is what TacitMap collapses to 1.
	arr, _ := NewDiffArray(smallDiffConfig(true, 0))
	x := bitops.NewVector(arr.cfg.Cols)
	if _, err := rowPopcounts(arr, x); err != nil {
		t.Fatal(err)
	}
	s := arr.Stats()
	n, c := int64(arr.cfg.Rows), int64(arr.cfg.Cols)
	if s.RowActivations != n {
		t.Fatalf("RowActivations = %d, want %d", s.RowActivations, n)
	}
	if s.PCSASenses != n*c {
		t.Fatalf("PCSASenses = %d, want %d", s.PCSASenses, n*c)
	}
	arr.ResetStats()
	if arr.Stats() != (DiffStats{}) {
		t.Fatal("ResetStats did not zero")
	}
}

func TestDiffProgramCounts2Writes(t *testing.T) {
	arr, _ := NewDiffArray(smallDiffConfig(true, 0))
	arr.ResetStats()
	m := bitops.NewMatrix(arr.cfg.Rows, arr.cfg.Cols)
	if err := arr.Program(m); err != nil {
		t.Fatal(err)
	}
	want := int64(2 * arr.cfg.Rows * arr.cfg.Cols)
	if got := arr.Stats().CellWrites; got != want {
		t.Fatalf("CellWrites = %d, want %d (2 devices per bit)", got, want)
	}
}

func TestDiffErrors(t *testing.T) {
	arr, _ := NewDiffArray(smallDiffConfig(true, 0))
	if _, err := arr.ReadRowXnorInto(-1, bitops.NewVector(arr.cfg.Cols), nil); err == nil {
		t.Fatal("expected row range error")
	}
	if _, err := arr.ReadRowXnorInto(arr.cfg.Rows, bitops.NewVector(arr.cfg.Cols), nil); err == nil {
		t.Fatal("expected row range error")
	}
	if _, err := arr.ReadRowXnorInto(0, bitops.NewVector(1), nil); err == nil {
		t.Fatal("expected input length error")
	}
	if err := arr.Program(bitops.NewMatrix(1, 1)); err == nil {
		t.Fatal("expected program dimension error")
	}
}

// Property: both organizations compute identical XNOR+Popcount results
// for the same logical weights/inputs — the mappings differ in cost,
// never in function.
func TestOrganizationsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 8+rng.Intn(8), 8+rng.Intn(16)

		// CustBinaryMap organization (weights as rows).
		dcfg := DiffConfig{Rows: rows, Cols: cols, EPCM: device.DefaultEPCMParams(), Seed: seed}
		diff, err := NewDiffArray(dcfg)
		if err != nil {
			return false
		}
		weights := randomMatrix(rng, rows, cols)
		if err := diff.Program(weights); err != nil {
			return false
		}
		x := randomVector(rng, cols)
		baseline, err := rowPopcounts(diff, x)
		if err != nil {
			return false
		}

		// TacitMap organization (weights as [w;¬w] columns).
		cfg := Config{
			Rows: 2 * cols, Cols: rows,
			Tech: device.EPCM, EPCM: device.DefaultEPCMParams(),
			Seed: seed, ColumnsPerADC: 1, ADCBits: 10,
		}
		arr, err := NewArray(cfg)
		if err != nil {
			return false
		}
		layout := bitops.NewMatrix(2*cols, rows)
		for j := 0; j < rows; j++ {
			col := bitops.Concat(weights.Row(j), weights.Row(j).Not())
			for r := 0; r < 2*cols; r++ {
				layout.Set(r, j, col.Get(r))
			}
		}
		if err := arr.Program(layout); err != nil {
			return false
		}
		tacit, err := arr.VMMInto(bitops.Concat(x, x.Not()), nil)
		if err != nil {
			return false
		}
		for j := 0; j < rows; j++ {
			if baseline[j] != tacit[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
