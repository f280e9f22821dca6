package bnn_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/gpu"
)

// TestNewModelWeightGolden pins every zoo network's synthesized weights
// at seed 1: the topology tables feed NewModel's RNG draws layer by
// layer, so a reordered or resized table changes these hashes.
func TestNewModelWeightGolden(t *testing.T) {
	want := map[string]string{
		"CNN-S": "f3dee3e90f05a0a3cd97bef2013dd607c3c5e6dd47246f34bfe8402a30ec1e9d",
		"CNN-M": "0ae0fed94c88519e29e0840df79d8f19a90cb3d369b03c2d234d30db2af81899",
		"CNN-L": "67e77910aff05ab1027028f8822b29adc114de9118a7555d15e4963b617569a4",
		"MLP-S": "337b750c97fdba9538803571115630f5f0b85c5df6c6f20afd867f85e3608eb3",
		"MLP-M": "b35c41c73c00847a7cc615e8b8b63e23828f64951dcfe1953a578f9aa0e76cce",
		"MLP-L": "98ea75fc40b7d81029a31fbaf8567f453138f381b6e14c5cbbcb86767d659745",
	}
	for _, name := range bnn.ZooNames {
		m, err := bnn.NewModel(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := bnn.WriteModel(&buf, m); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: weights hash %s, want %s", name, got, want[name])
		}
	}
}

// TestArchPricesLikeModel pins the shape-only zoo to the synthesized
// one: same name, costs, totals and GPU price at any seed.
func TestArchPricesLikeModel(t *testing.T) {
	g := gpu.DefaultModel()
	for _, name := range bnn.ZooNames {
		a, err := bnn.Arch(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, seed := range []int64{1, 2, 7} {
			m, err := bnn.NewModel(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if a.Name() != m.Name() {
				t.Fatalf("%s: Arch name %q, Model name %q", name, a.Name(), m.Name())
			}
			if !reflect.DeepEqual(a.Costs(), m.Costs()) {
				t.Fatalf("%s seed %d: costs differ:\narch  %+v\nmodel %+v", name, seed, a.Costs(), m.Costs())
			}
			if a.TotalBinaryOps() != m.TotalBinaryOps() || a.TotalFPMACs() != m.TotalFPMACs() {
				t.Fatalf("%s seed %d: totals differ", name, seed)
			}
			if g.InferenceLatencyNs(a) != g.InferenceLatencyNs(m) || g.InferenceEnergyPJ(a) != g.InferenceEnergyPJ(m) {
				t.Fatalf("%s seed %d: GPU price differs", name, seed)
			}
		}
	}
	_, aerr := bnn.Arch("nope")
	_, merr := bnn.NewModel("nope", 1)
	if aerr == nil || merr == nil || aerr.Error() != merr.Error() {
		t.Fatalf("unknown name: Arch error %v, NewModel error %v", aerr, merr)
	}
	if got := len(bnn.ZooArchs()); got != len(bnn.ZooNames) {
		t.Fatalf("ZooArchs has %d networks, want %d", got, len(bnn.ZooNames))
	}
}
