package core_test

import (
	"fmt"
	"math/rand"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
)

// A BNN layer is n weight vectors of m bits; its inference kernel is
// XNOR+Popcount against an input vector (Eq. (1)). This example maps
// one layer onto an analog crossbar twice — with the SotA
// CustBinaryMap (2T2R, row-serial) and with the paper's TacitMap
// (1T1R, one-shot column-parallel) — verifies both against exact
// software arithmetic, and contrasts their step counts.
func ExampleMapTacit() {
	const (
		n = 96  // weight vectors (layer outputs)
		m = 128 // bits per vector (layer inputs)
	)
	rng := rand.New(rand.NewSource(42))

	// A random binary layer and a random binarized input.
	weights := bitops.NewMatrix(n, m)
	for r := 0; r < n; r++ {
		for c := 0; c < m; c++ {
			weights.Set(r, c, rng.Intn(2) == 1)
		}
	}
	x := bitops.NewVector(m)
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 1 {
			x.Set(i)
		}
	}

	// Ground truth: exact integer XNOR+Popcount.
	want := weights.XnorPopcountAllInto(x, nil)

	// TacitMap on a noisy ePCM 1T1R crossbar.
	tacit, err := core.MapTacit(weights, crossbar.DefaultConfig(device.EPCM))
	if err != nil {
		panic(err)
	}
	tacit.ResetStats()
	got, err := tacit.ExecuteInto(x, nil)
	if err != nil {
		panic(err)
	}
	check("TacitMap", got, want)
	ts := tacit.Stats()

	// CustBinaryMap on a noisy ePCM 2T2R array.
	cust, err := core.MapCust(weights, crossbar.DefaultDiffConfig())
	if err != nil {
		panic(err)
	}
	cust.ResetStats()
	got, err = cust.Execute(x)
	if err != nil {
		panic(err)
	}
	check("CustBinaryMap", got, want)
	cs := cust.Stats()

	fmt.Println()
	fmt.Printf("%-28s %16s %16s\n", "cost per input vector", "CustBinaryMap", "TacitMap")
	fmt.Printf("%-28s %16d %16d\n", "crossbar activations", cs.RowActivations, ts.VMMOps)
	fmt.Printf("%-28s %16d %16d\n", "sense/convert operations", cs.PCSASenses, ts.ADCConversions)
	fmt.Println()

	tp, cp := tacit.Plan(), cust.Plan()
	fmt.Printf("critical path: CustBinaryMap %d steps vs TacitMap %d step(s) — %gx\n",
		cp.SerialStepsPerInput(), tp.SerialStepsPerInput(),
		float64(cp.SerialStepsPerInput())/float64(tp.SerialStepsPerInput()))
	// Output:
	// TacitMap       ok — 96 popcounts exact
	// CustBinaryMap  ok — 96 popcounts exact
	//
	// cost per input vector           CustBinaryMap         TacitMap
	// crossbar activations                       96                1
	// sense/convert operations                12288              256
	//
	// critical path: CustBinaryMap 96 steps vs TacitMap 1 step(s) — 96x
}

func check(name string, got, want []int) {
	for i := range want {
		if got[i] != want[i] {
			panic(fmt.Sprintf("%s: output %d = %d, want %d", name, i, got[i], want[i]))
		}
	}
	fmt.Printf("%-14s ok — %d popcounts exact\n", name, len(want))
}
