package core

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
)

// Golden pinning of ideal-mode TacitMap execution through the full
// tile/drive/partial-sum path. Captured from the pre-refactor per-cell
// implementation; the flat-storage rewrite must reproduce these counts
// bit-identically. Regenerate (deliberately!) with UPDATE_GOLDENS=1.

type coreGoldens struct {
	// EPCMExecute[i] is Execute output for input i on an ideal ePCM
	// multi-tile mapping (layer 70×300 on 64×32 arrays).
	EPCMExecute [][]int `json:"epcm_execute"`
	// OPCMExecute is the same layer on ideal oPCM arrays.
	OPCMExecute [][]int `json:"opcm_execute"`
	// OPCMExecuteMMM[k] is a K=4 WDM batch through ExecuteMMM.
	OPCMExecuteMMM [][]int `json:"opcm_execute_mmm"`
}

const coreGoldenPath = "testdata/ideal_goldens.json"

func computeCoreGoldens(t *testing.T) coreGoldens {
	t.Helper()
	var g coreGoldens
	rng := rand.New(rand.NewSource(33))
	const n, m = 70, 300
	weights := bitops.NewMatrix(n, m)
	for r := 0; r < n; r++ {
		for c := 0; c < m; c++ {
			weights.Set(r, c, rng.Intn(2) == 1)
		}
	}
	inputs := make([]*bitops.Vector, 6)
	for i := range inputs {
		inputs[i] = bitops.NewVector(m)
		for b := 0; b < m; b++ {
			if rng.Intn(2) == 1 {
				inputs[i].Set(b)
			}
		}
	}

	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		cfg := crossbar.DefaultConfig(tech)
		cfg.Rows, cfg.Cols = 64, 32
		cfg.ADCBits = 7
		cfg.Ideal = true
		mapped, err := MapTacit(weights, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range inputs {
			out, err := mapped.ExecuteInto(in, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tech == device.EPCM {
				g.EPCMExecute = append(g.EPCMExecute, out)
			} else {
				g.OPCMExecute = append(g.OPCMExecute, out)
			}
		}
		if tech == device.OPCM {
			mmm, err := mapped.ExecuteMMM(inputs[:4])
			if err != nil {
				t.Fatal(err)
			}
			g.OPCMExecuteMMM = mmm
		}
	}
	return g
}

func TestIdealExecuteMatchesGoldens(t *testing.T) {
	got := computeCoreGoldens(t)
	if os.Getenv("UPDATE_GOLDENS") == "1" {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(coreGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(coreGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", coreGoldenPath)
		return
	}
	data, err := os.ReadFile(coreGoldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run with UPDATE_GOLDENS=1 to capture): %v", err)
	}
	var want coreGoldens
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EPCMExecute, want.EPCMExecute) {
		t.Error("ideal ePCM Execute counts diverged from pre-refactor goldens")
	}
	if !reflect.DeepEqual(got.OPCMExecute, want.OPCMExecute) {
		t.Error("ideal oPCM Execute counts diverged from pre-refactor goldens")
	}
	if !reflect.DeepEqual(got.OPCMExecuteMMM, want.OPCMExecuteMMM) {
		t.Error("ideal oPCM ExecuteMMM counts diverged from pre-refactor goldens")
	}
}
