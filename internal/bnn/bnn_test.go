package bnn

import (
	"math/rand"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/tensor"
)

func TestDenseFPForward(t *testing.T) {
	w := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3) // 2 out, 3 in
	d := &DenseFP{LayerName: "d", W: w, B: []float64{1, -1}}
	x := tensor.FromSlice([]float64{1, 0, -1}, 3)
	y := d.Forward(x)
	// out0 = 1 + (1-3) = -1; out1 = -1 + (4-6) = -3
	if y.Data()[0] != -1 || y.Data()[1] != -3 {
		t.Fatalf("forward = %v", y.Data())
	}
	if d.macs() != 6 {
		t.Fatalf("MACs = %d", d.macs())
	}
}

func TestDenseFPReLU(t *testing.T) {
	w := tensor.FromSlice([]float64{-1}, 1, 1)
	d := &DenseFP{LayerName: "d", W: w, B: []float64{0}, ReLU: true}
	y := d.Forward(tensor.FromSlice([]float64{5}, 1))
	if y.Data()[0] != 0 {
		t.Fatalf("ReLU failed: %g", y.Data()[0])
	}
}

func TestDenseFPSizeMismatchPanics(t *testing.T) {
	d := &DenseFP{LayerName: "d", W: tensor.NewFloat(2, 3), B: make([]float64, 2)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Forward(tensor.NewFloat(4))
}

func TestBinaryDenseForwardMatchesManual(t *testing.T) {
	w := bitops.NewMatrix(2, 4)
	// row0 = 1111, row1 = 1000
	for c := 0; c < 4; c++ {
		w.Set(0, c, true)
	}
	w.Set(1, 0, true)
	b := &BinaryDense{LayerName: "b", W: w, Thresh: []int{0, 3}}
	// x = +1,+1,-1,-1 → xb = 1100
	x := tensor.FromSlice([]float64{1, 1, -1, -1}, 4)
	y := b.Forward(x)
	// dot0 = 1+1-1-1 = 0 ≥ 0 → +1 ; dot1 = 1-1+1+1 = 2 < 3 → -1
	if y.Data()[0] != 1 || y.Data()[1] != -1 {
		t.Fatalf("forward = %v", y.Data())
	}
}

func TestBinaryDenseWorkload(t *testing.T) {
	b := &BinaryDense{LayerName: "b", W: bitops.NewMatrix(10, 20), Thresh: make([]int, 10)}
	wl := b.Workload()
	if wl.N != 10 || wl.M != 20 || wl.Positions != 1 || wl.Ops() != 200 {
		t.Fatalf("workload = %+v", wl)
	}
}

func TestBinaryConvForwardAgainstDense(t *testing.T) {
	// A 1×1 convolution over a 1-pixel image must equal a dense layer.
	rng := rand.New(rand.NewSource(2))
	g := tensor.ConvGeom{InC: 8, InH: 1, InW: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	k := bitops.NewMatrix(4, 8)
	for r := 0; r < 4; r++ {
		for c := 0; c < 8; c++ {
			k.Set(r, c, rng.Intn(2) == 1)
		}
	}
	thresh := []int{0, 1, -1, 2}
	conv := &BinaryConv2D{LayerName: "c", Geom: g, OutC: 4, K: k, Thresh: thresh}
	dense := &BinaryDense{LayerName: "d", W: k, Thresh: thresh}
	x := tensor.NewFloat(8, 1, 1)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	yc := conv.Forward(x)
	yd := dense.Forward(x.Reshape(8))
	for i := 0; i < 4; i++ {
		if yc.Data()[i] != yd.Data()[i] {
			t.Fatalf("conv/dense disagree at %d", i)
		}
	}
}

func TestBinaryConvWorkload(t *testing.T) {
	g := tensor.ConvGeom{InC: 16, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b := &BinaryConv2D{LayerName: "c", Geom: g, OutC: 32, K: bitops.NewMatrix(32, g.PatchLen()), Thresh: make([]int, 32)}
	wl := b.Workload()
	if wl.N != 32 || wl.M != 144 || wl.Positions != 64 {
		t.Fatalf("workload = %+v", wl)
	}
}

func TestSignLayer(t *testing.T) {
	s := &Sign{LayerName: "s"}
	y := s.Forward(tensor.FromSlice([]float64{-2, 0, 3}, 3))
	if y.Data()[0] != -1 || y.Data()[1] != -1 || y.Data()[2] != 1 {
		t.Fatalf("sign = %v", y.Data())
	}
}

func TestMaxPool2D(t *testing.T) {
	p := &MaxPool2D{LayerName: "p", Size: 2}
	x := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		-1, -2, -3, -4,
		-5, -6, -7, -8,
	}, 1, 4, 4)
	y := p.Forward(x)
	if d := y.Data(); d[0] != 6 || d[1] != 8 || d[2] != -1 || d[3] != -3 {
		t.Fatalf("pool = %v", y.Data())
	}
	sh := p.OutShape([]int{1, 4, 4})
	if sh[1] != 2 || sh[2] != 2 {
		t.Fatalf("OutShape = %v", sh)
	}
}

func TestFlatten(t *testing.T) {
	f := &Flatten{LayerName: "f"}
	y := f.Forward(tensor.NewFloat(2, 3, 4))
	if len(y.Shape()) != 1 || y.Size() != 24 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
}

func TestZooModelsValidateAndCount(t *testing.T) {
	models, err := Zoo(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 6 {
		t.Fatalf("zoo size = %d", len(models))
	}
	var prevOps int64
	for i, m := range models[:3] { // CNNs ascending
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		ops := m.TotalBinaryOps()
		if ops <= prevOps {
			t.Fatalf("CNN sizes not ascending at %d: %d <= %d", i, ops, prevOps)
		}
		prevOps = ops
	}
	prevOps = 0
	for i, m := range models[3:] { // MLPs ascending
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		ops := m.TotalBinaryOps()
		if ops <= prevOps {
			t.Fatalf("MLP sizes not ascending at %d: %d <= %d", i, ops, prevOps)
		}
		prevOps = ops
	}
}

func TestZooUnknownName(t *testing.T) {
	if _, err := NewModel("nope", 0); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestZooDeterministic(t *testing.T) {
	a, err := NewModel("MLP-S", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel("MLP-S", 7)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewFloat(784)
	rng := rand.New(rand.NewSource(3))
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	la, lb := a.Infer(x.Clone()), b.Infer(x.Clone())
	for i := range la.Data() {
		if la.Data()[i] != lb.Data()[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestModelInferShapes(t *testing.T) {
	for _, name := range ZooNames {
		m, err := NewModel(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.NewFloat(m.InputShape...)
		rng := rand.New(rand.NewSource(5))
		for i := range x.Data() {
			x.Data()[i] = rng.Float64()
		}
		logits := m.Infer(x)
		if logits.Size() != m.Classes {
			t.Fatalf("%s: logits size %d", name, logits.Size())
		}
		p := m.Predict(x)
		if p < 0 || p >= m.Classes {
			t.Fatalf("%s: prediction %d out of range", name, p)
		}
	}
}

func TestCostsConsistency(t *testing.T) {
	m, err := NewModel("CNN-S", 1)
	if err != nil {
		t.Fatal(err)
	}
	costs := m.Costs()
	if len(costs) != len(m.Layers) {
		t.Fatalf("%d costs for %d layers", len(costs), len(m.Layers))
	}
	var binOps, macs int64
	for _, c := range costs {
		switch c.Kind {
		case "binary":
			binOps += c.Work.Ops()
			if c.MACs != 0 {
				t.Fatal("binary layer with MACs")
			}
		case "fp":
			macs += c.MACs
		case "shape":
		default:
			t.Fatalf("unknown kind %q", c.Kind)
		}
		if c.ActivationBytes <= 0 {
			t.Fatalf("layer %s has no activation traffic", c.Name)
		}
	}
	if binOps != m.TotalBinaryOps() || macs != m.TotalFPMACs() {
		t.Fatal("cost totals disagree with model totals")
	}
}

func TestValidateCatchesBadStack(t *testing.T) {
	m := &Model{
		ModelName:  "broken",
		InputShape: []int{10},
		Classes:    10,
		Layers: []Layer{
			&DenseFP{LayerName: "d", W: tensor.NewFloat(5, 10), B: make([]float64, 5)},
		},
	}
	if err := m.Validate(); err == nil {
		t.Fatal("expected shape error (5 != 10 classes)")
	}
	empty := &Model{ModelName: "empty", InputShape: []int{1}, Classes: 1}
	if err := empty.Validate(); err == nil {
		t.Fatal("expected error for empty model")
	}
}

func TestWeightBits(t *testing.T) {
	m, _ := NewModel("MLP-S", 1)
	// MLP-S is 784-1024-1024-512-10: binary layers 1024×1024 + 512×1024.
	want := int64(1024*1024 + 512*1024)
	if got := m.WeightBits(); got != want {
		t.Fatalf("WeightBits = %d, want %d", got, want)
	}
}
