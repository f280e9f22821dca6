package gpu

import (
	"testing"

	"einsteinbarrier/internal/bnn"
)

func TestDefaultModelValid(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []func(*Model){
		func(m *Model) { m.FP32PerNs = 0 },
		func(m *Model) { m.BinOpsPerNs = -1 },
		func(m *Model) { m.BytesPerNs = 0 },
		func(m *Model) { m.DenseOverheadNs = -1 },
		func(m *Model) { m.PowerW = -1 },
	}
	for i, mutate := range cases {
		m := DefaultModel()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestLayerLatencyKinds(t *testing.T) {
	g := DefaultModel()
	binDense := bnn.LayerCost{
		Kind:            "binary",
		Work:            bnn.Workload{N: 1024, M: 1024, Positions: 1},
		ActivationBytes: 128,
	}
	if lat := g.layerLatencyNs(binDense); lat < g.DenseOverheadNs {
		t.Fatalf("dense binary latency %g below overhead", lat)
	}
	conv := bnn.LayerCost{
		Kind:            "binary",
		Work:            bnn.Workload{N: 64, M: 576, Positions: 1024},
		ActivationBytes: 8192,
	}
	if lat := g.layerLatencyNs(conv); lat < g.ConvOverheadNs {
		t.Fatalf("conv latency %g below conv overhead", lat)
	}
	shape := bnn.LayerCost{Kind: "shape"}
	if g.layerLatencyNs(shape) != 0 {
		t.Fatal("shape layers must fuse for free")
	}
}

func TestMemoryBoundDenseFP(t *testing.T) {
	// A big fp dense layer at batch 1 is bandwidth-bound: latency should
	// track weight bytes / bandwidth.
	g := DefaultModel()
	fp := bnn.LayerCost{
		Kind: "fp", MACs: 784 * 3072,
		Work: bnn.Workload{N: 3072, M: 784, Positions: 1},
	}
	weightBytes := 3072.0 * 784 * 4
	want := g.DenseOverheadNs + weightBytes/g.BytesPerNs
	got := g.layerLatencyNs(fp)
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("fp dense latency = %g, want ≈ %g", got, want)
	}
}

func TestInferenceLatencyAggregates(t *testing.T) {
	g := DefaultModel()
	m, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range m.Costs() {
		sum += g.layerLatencyNs(c)
	}
	if got := g.InferenceLatencyNs(m); got != sum {
		t.Fatalf("InferenceLatencyNs = %g, want %g", got, sum)
	}
	if g.InferenceEnergyPJ(m) != g.PowerW*sum*1000 {
		t.Fatal("energy must be power × latency")
	}
}

func TestMLPsFasterThanCNNsOnGPU(t *testing.T) {
	// The crossover driver (paper observation 4): at batch 1 the GPU
	// handles MLPs well (few fused GEMV kernels) and CNNs poorly.
	g := DefaultModel()
	mlp, _ := bnn.NewModel("MLP-S", 1)
	cnn, _ := bnn.NewModel("CNN-S", 1)
	if g.InferenceLatencyNs(mlp) >= g.InferenceLatencyNs(cnn) {
		t.Fatal("MLP-S should be faster than CNN-S on the GPU model")
	}
}
