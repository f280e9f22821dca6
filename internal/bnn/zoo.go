package bnn

import (
	"fmt"
	"math/rand"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/tensor"
)

// The model zoo mirrors the paper's evaluation set (§V-C): six BNNs of
// varying size from the MlBench suite — three multilayer perceptrons on
// MNIST-scale inputs and three convolutional networks on MNIST/CIFAR
//-scale inputs. The paper does not publish exact layer tables, so the
// zoo uses representative MlBench/PRIME-style configurations spanning
// roughly two orders of magnitude in XNOR+Popcount work, which is what
// drives the network-to-network spread in Figs. 7–8.
//
// Each network is one topology table (Arch). TacitMap and
// EinsteinBarrier are exact accelerations of the same arithmetic, so
// model accuracy is orthogonal to the latency/energy evaluation (paper
// §V-C: "neither TacitMap nor EinsteinBarrier affect the accuracy"),
// and pricing reads the table alone. Weights are synthesized
// deterministically from a seed (NewModel) only where a forward pass
// runs; trained weights are only needed for the accuracy demos, which
// use the STE trainer in train.go.

// ZooNames lists the evaluation networks in the order used by the
// figures.
var ZooNames = []string{"CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L"}

// Arch returns a zoo network's weightless description. It is the one
// topology table of the zoo: NewModel synthesizes weights for exactly
// these layers, so an Architecture prices like the Model NewModel builds
// at any seed.
func Arch(name string) (*Architecture, error) {
	switch name {
	case "MLP-S":
		return mlpArch(name, []int{784, 1024, 1024, 512, 10}), nil
	case "MLP-M":
		return mlpArch(name, []int{784, 2048, 2048, 1024, 10}), nil
	case "MLP-L":
		return mlpArch(name, []int{784, 3072, 3072, 3072, 1536, 10}), nil
	case "CNN-S":
		return cnnSmall(), nil
	case "CNN-M":
		return cnnMedium(), nil
	case "CNN-L":
		return cnnLarge(), nil
	default:
		return nil, fmt.Errorf("bnn: unknown zoo model %q (have %v)", name, ZooNames)
	}
}

// ZooArchs returns the weightless descriptions of all six evaluation
// networks, in ZooNames order.
func ZooArchs() []*Architecture {
	out := make([]*Architecture, len(ZooNames))
	for i, n := range ZooNames {
		out[i], _ = Arch(n) // every ZooNames entry has a table
	}
	return out
}

// NewModel builds a zoo network by name with deterministically
// synthesized weights: one RNG stream seeded by seed, drawn layer by
// layer in execution order.
func NewModel(name string, seed int64) (*Model, error) {
	a, err := Arch(name)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{ModelName: a.name, InputShape: a.input, Classes: a.classes, Layers: make([]Layer, len(a.layers))}
	for i, s := range a.layers {
		m.Layers[i] = s.synthesize(rng)
	}
	return m, nil
}

// Zoo instantiates all six evaluation networks.
func Zoo(seed int64) ([]*Model, error) {
	out := make([]*Model, 0, len(ZooNames))
	for i, n := range ZooNames {
		m, err := NewModel(n, seed+int64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// --- topology tables -----------------------------------------------------

// mlpArch is sizes[0] → … → sizes[last]: FP input layer, binary hidden
// layers, FP output layer.
func mlpArch(name string, sizes []int) *Architecture {
	layers := []layerSpec{
		denseFPSpec("fc0-fp", sizes[0], sizes[1], true),
		{kind: kindSign, name: "sign0"},
	}
	for i := 1; i < len(sizes)-2; i++ {
		layers = append(layers, layerSpec{kind: kindBinaryDense,
			name: fmt.Sprintf("fc%d-bin", i), in: sizes[i], out: sizes[i+1]})
	}
	last := len(sizes) - 2
	layers = append(layers, denseFPSpec("fc-out-fp", sizes[last], sizes[last+1], false))
	return &Architecture{name: name, input: []int{sizes[0]}, classes: sizes[len(sizes)-1], layers: layers}
}

// cnnSmall is a LeNet-scale MNIST network.
func cnnSmall() *Architecture {
	g1 := tensor.ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	g2 := tensor.ConvGeom{InC: 8, InH: 14, InW: 14, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	return &Architecture{
		name:    "CNN-S",
		input:   []int{1, 28, 28},
		classes: 10,
		layers: []layerSpec{
			{kind: kindConvFP, name: "conv0-fp", geom: g1, out: 8},
			{kind: kindSign, name: "sign0"},
			poolSpec("pool0"),
			{kind: kindBinaryConv, name: "conv1-bin", geom: g2, out: 16},
			poolSpec("pool1"),
			{kind: kindFlatten, name: "flatten"},
			{kind: kindBinaryDense, name: "fc0-bin", in: 16 * 7 * 7, out: 120},
			{kind: kindBinaryDense, name: "fc1-bin", in: 120, out: 84},
			denseFPSpec("fc-out-fp", 84, 10, false),
		},
	}
}

// cnnMedium is a mid-size CIFAR network.
func cnnMedium() *Architecture {
	g0 := conv3x3(3, 32)
	g1 := conv3x3(64, 32)
	g2 := conv3x3(64, 16)
	g3 := conv3x3(128, 8)
	return &Architecture{
		name:    "CNN-M",
		input:   []int{3, 32, 32},
		classes: 10,
		layers: []layerSpec{
			{kind: kindConvFP, name: "conv0-fp", geom: g0, out: 64},
			{kind: kindSign, name: "sign0"},
			{kind: kindBinaryConv, name: "conv1-bin", geom: g1, out: 64},
			poolSpec("pool0"),
			{kind: kindBinaryConv, name: "conv2-bin", geom: g2, out: 128},
			poolSpec("pool1"),
			{kind: kindBinaryConv, name: "conv3-bin", geom: g3, out: 128},
			poolSpec("pool2"),
			{kind: kindFlatten, name: "flatten"},
			{kind: kindBinaryDense, name: "fc0-bin", in: 128 * 4 * 4, out: 1024},
			denseFPSpec("fc-out-fp", 1024, 10, false),
		},
	}
}

// cnnLarge is a VGG-scale CIFAR network.
func cnnLarge() *Architecture {
	g0 := conv3x3(3, 32)
	g1 := conv3x3(128, 32)
	g2 := conv3x3(128, 16)
	g3 := conv3x3(256, 16)
	g4 := conv3x3(256, 8)
	g5 := conv3x3(512, 8)
	return &Architecture{
		name:    "CNN-L",
		input:   []int{3, 32, 32},
		classes: 10,
		layers: []layerSpec{
			{kind: kindConvFP, name: "conv0-fp", geom: g0, out: 128},
			{kind: kindSign, name: "sign0"},
			{kind: kindBinaryConv, name: "conv1-bin", geom: g1, out: 128},
			poolSpec("pool0"),
			{kind: kindBinaryConv, name: "conv2-bin", geom: g2, out: 256},
			{kind: kindBinaryConv, name: "conv3-bin", geom: g3, out: 256},
			poolSpec("pool1"),
			{kind: kindBinaryConv, name: "conv4-bin", geom: g4, out: 512},
			{kind: kindBinaryConv, name: "conv5-bin", geom: g5, out: 512},
			poolSpec("pool2"),
			{kind: kindFlatten, name: "flatten"},
			{kind: kindBinaryDense, name: "fc0-bin", in: 512 * 4 * 4, out: 1024},
			{kind: kindBinaryDense, name: "fc1-bin", in: 1024, out: 1024},
			denseFPSpec("fc-out-fp", 1024, 10, false),
		},
	}
}

// conv3x3 is the CIFAR networks' square 3×3, stride-1, pad-1 geometry
// over an inC×hw×hw input.
func conv3x3(inC, hw int) tensor.ConvGeom {
	return tensor.ConvGeom{InC: inC, InH: hw, InW: hw, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
}

func denseFPSpec(name string, in, out int, relu bool) layerSpec {
	return layerSpec{kind: kindDenseFP, name: name, in: in, out: out, relu: relu}
}

func poolSpec(name string) layerSpec { return layerSpec{kind: kindMaxPool, name: name, size: 2} }

// --- weight synthesis --------------------------------------------------

func randomDenseFP(rng *rand.Rand, name string, in, out int, relu bool) *DenseFP {
	w := tensor.NewFloat(out, in)
	scale := 1.0 / float64(in)
	for i := range w.Data() {
		w.Data()[i] = rng.NormFloat64() * scale * 8
	}
	b := make([]float64, out)
	for i := range b {
		b[i] = rng.NormFloat64() * 0.01
	}
	return &DenseFP{LayerName: name, W: w, B: b, ReLU: relu}
}

func randomConvFP(rng *rand.Rand, name string, g tensor.ConvGeom, outC int) *ConvFP {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	k := tensor.NewFloat(outC, g.PatchLen())
	scale := 1.0 / float64(g.PatchLen())
	for i := range k.Data() {
		k.Data()[i] = rng.NormFloat64() * scale * 8
	}
	b := make([]float64, outC)
	for i := range b {
		b[i] = rng.NormFloat64() * 0.01
	}
	return &ConvFP{LayerName: name, Geom: g, OutC: outC, K: k, B: b}
}

func randomBits(rng *rand.Rand, rows, cols int) *bitops.Matrix {
	m := bitops.NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, rng.Intn(2) == 1)
		}
	}
	return m
}

// randomThresholds draws small thresholds around zero; a zero threshold
// is plain sign, non-zero values emulate folded batch-norm offsets.
func randomThresholds(rng *rand.Rand, n, m int) []int {
	t := make([]int, n)
	spread := m / 16
	if spread < 1 {
		spread = 1
	}
	for i := range t {
		t[i] = rng.Intn(2*spread+1) - spread
	}
	return t
}

func randomBinaryDense(rng *rand.Rand, name string, in, out int) *BinaryDense {
	return &BinaryDense{
		LayerName: name,
		W:         randomBits(rng, out, in),
		Thresh:    randomThresholds(rng, out, in),
	}
}

func randomBinaryConv(rng *rand.Rand, name string, g tensor.ConvGeom, outC int) *BinaryConv2D {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return &BinaryConv2D{
		LayerName: name,
		Geom:      g,
		OutC:      outC,
		K:         randomBits(rng, outC, g.PatchLen()),
		Thresh:    randomThresholds(rng, outC, g.PatchLen()),
	}
}
