package core

import (
	"math/rand"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
)

// Zero-allocation regression pins for the mapped execution paths
// (ISSUE 2: TacitMapped carries per-tile drive and partial-sum scratch
// so steady-state hardware execution is allocation-free).

func allocTestLayer(t *testing.T, tech device.Technology) (*TacitMapped, *bitops.Vector) {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	const n, m = 70, 300 // multi-tile, word-unaligned extents
	weights := bitops.NewMatrix(n, m)
	for r := 0; r < n; r++ {
		for c := 0; c < m; c++ {
			weights.Set(r, c, rng.Intn(2) == 1)
		}
	}
	cfg := crossbar.DefaultConfig(tech)
	cfg.Rows, cfg.Cols = 64, 32
	cfg.ADCBits = 7
	cfg.Seed = 21 // noisy mode: noise draws must not allocate either
	mapped, err := MapTacit(weights, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := bitops.NewVector(m)
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 1 {
			x.Set(i)
		}
	}
	return mapped, x
}

func TestExecuteIntoZeroAllocs(t *testing.T) {
	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		mapped, x := allocTestLayer(t, tech)
		out := make([]int, mapped.Plan().N)
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := mapped.ExecuteInto(x, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%v ExecuteInto allocates %g times per run", tech, allocs)
		}
	}
}

func TestExecuteMMMIntoZeroAllocs(t *testing.T) {
	mapped, x := allocTestLayer(t, device.OPCM)
	const k = 4
	xs := make([]*bitops.Vector, k)
	out := make([][]int, k)
	for i := range xs {
		xs[i] = x
		out[i] = make([]int, mapped.Plan().N)
	}
	// Warm the K-sized scratch once, then pin.
	if _, err := mapped.ExecuteMMMInto(xs, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := mapped.ExecuteMMMInto(xs, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ExecuteMMMInto allocates %g times per run", allocs)
	}
}

func TestCustExecuteIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, m = 40, 100
	weights := bitops.NewMatrix(n, m)
	for r := 0; r < n; r++ {
		for c := 0; c < m; c++ {
			weights.Set(r, c, rng.Intn(2) == 1)
		}
	}
	cfg := crossbar.DiffConfig{Rows: 32, Cols: 48, EPCM: device.DefaultEPCMParams(), Seed: 23}
	mapped, err := MapCust(weights, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := bitops.NewVector(m)
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 1 {
			x.Set(i)
		}
	}
	out := make([]int, n)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := mapped.executeInto(x, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("CustMapped.ExecuteInto allocates %g times per run", allocs)
	}
}

func TestExecuteIntoMatchesExecute(t *testing.T) {
	mapped, x := allocTestLayer(t, device.EPCM)
	want, err := mapped.ExecuteInto(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, mapped.Plan().N)
	got, err := mapped.ExecuteInto(x, out)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExecuteInto[%d] = %d into a caller-owned slice, %d into a fresh one", i, got[i], want[i])
		}
	}
}
