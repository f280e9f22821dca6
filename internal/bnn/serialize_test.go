package bnn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"einsteinbarrier/internal/tensor"
)

func roundTrip(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSerializeRoundTripAllZoo(t *testing.T) {
	for _, name := range ZooNames {
		m, err := NewModel(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		got := roundTrip(t, m)
		if got.ModelName != m.ModelName || got.Classes != m.Classes {
			t.Fatalf("%s: header mismatch", name)
		}
		if len(got.Layers) != len(m.Layers) {
			t.Fatalf("%s: %d layers, want %d", name, len(got.Layers), len(m.Layers))
		}
		// Same inference on a random input — layer-exact equality via
		// the strongest observable: identical logits.
		x := tensor.NewFloat(m.InputShape...)
		rng := rand.New(rand.NewSource(9))
		for i := range x.Data() {
			x.Data()[i] = rng.Float64()
		}
		a, b := m.Infer(x.Clone()), got.Infer(x.Clone())
		for i := range a.Data() {
			if a.Data()[i] != b.Data()[i] {
				t.Fatalf("%s: logits diverge at %d", name, i)
			}
		}
	}
}

func TestSerializeTrainedModel(t *testing.T) {
	tr, err := NewTrainer(TrainerConfig{Sizes: []int{16, 8, 8, 4}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Export("tiny")
	got := roundTrip(t, m)
	x := tensor.NewFloat(16)
	for i := range x.Data() {
		x.Data()[i] = float64(i%3) - 1
	}
	if m.Predict(x.Clone()) != got.Predict(x.Clone()) {
		t.Fatal("prediction changed after round trip")
	}
}

func TestBinaryWeightsCompact(t *testing.T) {
	// The whole point of BNN storage: serialized binary layers must be
	// ~64× smaller than a float32 encoding of the same weights.
	m, err := NewModel("MLP-M", 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Expected: binary weights at 1 bit each, FP weights at 8 bytes
	// (float64), plus thresholds/biases and modest framing.
	binBytes := m.WeightBits() / 8
	fpBytes := m.TotalFPMACs() * 8 // dense/conv weight counts equal their MACs per position
	budget := binBytes + fpBytes + binBytes/2 + 256*1024
	if int64(buf.Len()) > budget {
		t.Fatalf("serialized size %d exceeds budget %d (binary layers not bit-packed?)", buf.Len(), budget)
	}
	// And the binary layers alone must be ~32× below an fp32 encoding.
	if binBytes*32 > m.WeightBits()*4 {
		t.Fatal("arithmetic sanity")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("EBNN"),                     // truncated after magic
		append([]byte("EBNN"), 9, 0, 0, 0), // bad version
	}
	for i, b := range cases {
		if _, err := ReadModel(bytes.NewReader(b)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestReadModelRejectsTruncation(t *testing.T) {
	m, _ := NewModel("MLP-S", 1)
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadModel(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestReadModelValidates(t *testing.T) {
	// A structurally valid stream whose shapes do not compose must be
	// rejected by the final Validate.
	m := &Model{
		ModelName:  "bad",
		InputShape: []int{4},
		Classes:    3, // final layer emits 2 — mismatch
		Layers: []Layer{
			&DenseFP{LayerName: "d", W: tensor.NewFloat(2, 4), B: make([]float64, 2)},
		},
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadModel(&buf); err == nil {
		t.Fatal("expected validation error on read")
	}
}

// unchainedPool is a well-formed model whose pooling layer is fed a
// flat vector: every layer decodes, but the stack's shapes do not chain.
func unchainedPool() *Model {
	return &Model{ModelName: "unchained", InputShape: []int{4}, Layers: []Layer{&MaxPool2D{LayerName: "pool", Size: 2}}, Classes: 4}
}

// TestReadModelRejectsUnchainedStack: a stream whose layers each decode
// but whose shapes do not chain is an error from ReadModel, never a
// panic there or in the first Infer.
func TestReadModelRejectsUnchainedStack(t *testing.T) {
	g := tensor.ConvGeom{InC: 1, InH: 4, InW: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	cases := []struct {
		m    *Model
		want string
	}{
		{unchainedPool(), "pooling needs CHW input, got [4]"},
		{&Model{ModelName: "narrow", InputShape: []int{4}, Classes: 2, Layers: []Layer{
			&DenseFP{LayerName: "d", W: tensor.NewFloat(2, 3), B: make([]float64, 2)},
		}}, "input size 4, want 3"},
		{&Model{ModelName: "flat-conv", InputShape: []int{16}, Classes: 2, Layers: []Layer{
			&ConvFP{LayerName: "c", Geom: g, OutC: 2, K: tensor.NewFloat(2, 1), B: make([]float64, 2)},
			&Flatten{LayerName: "f"},
			&DenseFP{LayerName: "d", W: tensor.NewFloat(2, 32), B: make([]float64, 2)},
		}}, "input shape [16], want [1 4 4]"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteModel(&buf, c.m); err != nil {
			t.Fatal(err)
		}
		_, err := ReadModel(&buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: ReadModel error = %v, want %q", c.m.ModelName, err, c.want)
		}
	}
}
