package crossbar

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

// Golden pinning of the ideal-mode (noise-free) analog outputs. The
// flat struct-of-arrays storage refactor must leave every ideal-mode
// decoded count bit-identical to the original per-cell-object
// implementation; these goldens were captured from that implementation
// (set UPDATE_GOLDENS=1 to regenerate — only do this deliberately).
//
// Noisy-mode outputs are NOT golden-pinned: the storage refactor
// re-pinned the per-read RNG draw order from column-major to row-major
// (see DESIGN.md "Flat analog storage"), and noisy behavior is covered
// by the exact-decode property tests instead.

type crossbarGoldens struct {
	// EPCMVMM[i] is the decoded count vector for input i on an ideal
	// ePCM array with deliberately word-unaligned dims (100×37).
	EPCMVMM [][]int `json:"epcm_vmm"`
	// EPCMAgedVMM repeats the ePCM VMM after Age(3600) (drift active).
	EPCMAgedVMM [][]int `json:"epcm_aged_vmm"`
	// EPCMIRDropVMM is VMMWithIRDrop at SegmentOhm=2.
	EPCMIRDropVMM [][]int `json:"epcm_irdrop_vmm"`
	// OPCMVMM[i] is the ideal oPCM VMM output (64×32).
	OPCMVMM [][]int `json:"opcm_vmm"`
	// OPCMMMM[k][c] is one ideal K=5 MMM with the default −30 dB
	// crosstalk floor applied (deterministic even in ideal mode).
	OPCMMMM [][]int `json:"opcm_mmm"`
}

const goldenPath = "testdata/ideal_goldens.json"

func computeCrossbarGoldens(t *testing.T) crossbarGoldens {
	t.Helper()
	var g crossbarGoldens

	// ePCM, word-unaligned dims to stress the word-wise row scan.
	ecfg := DefaultConfig(device.EPCM)
	ecfg.Rows, ecfg.Cols = 100, 37
	ecfg.ADCBits = 7
	ecfg.Ideal = true
	earr, err := NewArray(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	if err := earr.Program(randomMatrix(rng, ecfg.Rows, ecfg.Cols)); err != nil {
		t.Fatal(err)
	}
	inputs := make([]*bitops.Vector, 8)
	for i := range inputs {
		inputs[i] = randomVector(rng, ecfg.Rows)
	}
	for _, in := range inputs {
		out, err := earr.VMMInto(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.EPCMVMM = append(g.EPCMVMM, out)
		ir, err := earr.VMMWithIRDrop(in, IRDropModel{SegmentOhm: 2})
		if err != nil {
			t.Fatal(err)
		}
		g.EPCMIRDropVMM = append(g.EPCMIRDropVMM, ir)
	}
	earr.Age(3600)
	for _, in := range inputs {
		out, err := earr.VMMInto(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.EPCMAgedVMM = append(g.EPCMAgedVMM, out)
	}

	// oPCM VMM + MMM (crosstalk floor is deterministic in ideal mode).
	ocfg := DefaultConfig(device.OPCM)
	ocfg.Rows, ocfg.Cols = 64, 32
	ocfg.ADCBits = 7
	ocfg.Ideal = true
	oarr, err := NewArray(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := oarr.Program(randomMatrix(rng, ocfg.Rows, ocfg.Cols)); err != nil {
		t.Fatal(err)
	}
	var mmmIn []*bitops.Vector
	for i := 0; i < 5; i++ {
		mmmIn = append(mmmIn, randomVector(rng, ocfg.Rows))
	}
	for _, in := range mmmIn {
		out, err := oarr.VMMInto(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		g.OPCMVMM = append(g.OPCMVMM, out)
	}
	mmm, err := oarr.MMMInto(mmmIn, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.OPCMMMM = mmm
	return g
}

func TestIdealOutputsMatchGoldens(t *testing.T) {
	got := computeCrossbarGoldens(t)
	if os.Getenv("UPDATE_GOLDENS") == "1" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", goldenPath)
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run with UPDATE_GOLDENS=1 to capture): %v", err)
	}
	var want crossbarGoldens
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EPCMVMM, want.EPCMVMM) {
		t.Error("ideal ePCM VMM counts diverged from pre-refactor goldens")
	}
	if !reflect.DeepEqual(got.EPCMAgedVMM, want.EPCMAgedVMM) {
		t.Error("ideal aged ePCM VMM counts diverged from pre-refactor goldens")
	}
	if !reflect.DeepEqual(got.EPCMIRDropVMM, want.EPCMIRDropVMM) {
		t.Error("ideal IR-drop VMM counts diverged from pre-refactor goldens")
	}
	if !reflect.DeepEqual(got.OPCMVMM, want.OPCMVMM) {
		t.Error("ideal oPCM VMM counts diverged from pre-refactor goldens")
	}
	if !reflect.DeepEqual(got.OPCMMMM, want.OPCMMMM) {
		t.Error("ideal oPCM MMM counts diverged from pre-refactor goldens")
	}
}
