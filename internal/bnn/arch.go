package bnn

import (
	"fmt"
	"math/rand"

	"einsteinbarrier/internal/tensor"
)

// Network is what pricing reads of a BNN: its name, a shape check and
// the per-layer costs. *Model satisfies it with weights attached and
// *Architecture without any, so the compiler, the GPU model and the
// evaluation harness price a network from its shapes alone.
type Network interface {
	Name() string
	Validate() error
	Costs() []LayerCost
}

// Architecture is a network without weights: name, input shape, class
// count and layer geometry. Arch builds one from the zoo's topology
// tables; it prices exactly like the Model NewModel builds from the
// same table at any seed.
type Architecture struct {
	name    string
	input   []int
	classes int
	layers  []layerSpec
}

// Name returns the network name.
func (a *Architecture) Name() string { return a.name }

// Validate shape-checks the layer stack.
func (a *Architecture) Validate() error { return validate(a.name, a.input, a.classes, a.layers) }

// Costs returns the per-layer cost descriptors (see Model.Costs).
func (a *Architecture) Costs() []LayerCost { return costs(a.name, a.input, a.layers) }

// TotalBinaryOps sums the XNOR+Popcount bit operations per inference.
func (a *Architecture) TotalBinaryOps() int64 { return totalBinaryOps(a.Costs()) }

// TotalFPMACs sums the high-precision MACs per inference.
func (a *Architecture) TotalFPMACs() int64 { return totalFPMACs(a.Costs()) }

// layerKind enumerates the built-in layer types.
type layerKind uint8

const (
	kindDenseFP layerKind = iota
	kindConvFP
	kindBinaryDense
	kindBinaryConv
	kindSign
	kindMaxPool
	kindFlatten
)

// layerSpec is one layer's weightless geometry: everything the shape
// check and the cost models read, and everything NewModel needs to
// synthesize the layer's weights.
type layerSpec struct {
	kind layerKind
	name string
	in   int             // input features of a dense layer
	out  int             // output features, or output channels of a convolution
	geom tensor.ConvGeom // convolutions
	relu bool            // DenseFP
	size int             // MaxPool2D window
}

// outShape maps an input shape to the layer's output shape, or says
// why the layer cannot take that input.
func (s layerSpec) outShape(in []int) ([]int, error) {
	switch s.kind {
	case kindDenseFP, kindBinaryDense:
		if sizeOf(in) != s.in {
			return nil, fmt.Errorf("bnn: %s: input size %d, want %d", s.name, sizeOf(in), s.in)
		}
		return []int{s.out}, nil
	case kindConvFP, kindBinaryConv:
		g := s.geom
		if len(in) != 3 || in[0] != g.InC || in[1] != g.InH || in[2] != g.InW {
			return nil, fmt.Errorf("bnn: %s: input shape %v, want [%d %d %d]", s.name, in, g.InC, g.InH, g.InW)
		}
		return []int{s.out, g.OutH(), g.OutW()}, nil
	case kindMaxPool:
		if len(in) != 3 {
			return nil, fmt.Errorf("bnn: %s: pooling needs CHW input, got %v", s.name, in)
		}
		return []int{in[0], in[1] / s.size, in[2] / s.size}, nil
	case kindFlatten:
		return []int{sizeOf(in)}, nil
	default: // kindSign
		return in, nil
	}
}

// work is the layer's N×M×Positions geometry: the XNOR+Popcount
// workload of a binary layer, the bit-sliced crossbar shape of an fp
// one, zero for shape layers.
func (s layerSpec) work() Workload {
	switch s.kind {
	case kindDenseFP, kindBinaryDense:
		return Workload{LayerName: s.name, N: s.out, M: s.in, Positions: 1}
	case kindConvFP, kindBinaryConv:
		return Workload{LayerName: s.name, N: s.out, M: s.geom.PatchLen(), Positions: s.geom.Positions()}
	}
	return Workload{}
}

// cost prices the layer whose output traffic is bytes.
func (s layerSpec) cost(bytes int64) LayerCost {
	c := LayerCost{Name: s.name, Kind: "shape", ActivationBytes: bytes}
	switch s.kind {
	case kindBinaryDense, kindBinaryConv:
		c.Kind, c.Work = "binary", s.work()
	case kindDenseFP, kindConvFP:
		c.Kind, c.Work = "fp", s.work()
		c.MACs = c.Work.Ops()
	}
	return c
}

// synthesize builds the layer with weights drawn from rng.
func (s layerSpec) synthesize(rng *rand.Rand) Layer {
	switch s.kind {
	case kindDenseFP:
		return randomDenseFP(rng, s.name, s.in, s.out, s.relu)
	case kindConvFP:
		return randomConvFP(rng, s.name, s.geom, s.out)
	case kindBinaryDense:
		return randomBinaryDense(rng, s.name, s.in, s.out)
	case kindBinaryConv:
		return randomBinaryConv(rng, s.name, s.geom, s.out)
	case kindMaxPool:
		return &MaxPool2D{LayerName: s.name, Size: s.size}
	case kindFlatten:
		return &Flatten{LayerName: s.name}
	default: // kindSign
		return &Sign{LayerName: s.name}
	}
}

// walk runs the stack's shapes forward from input and prices every
// layer, returning the costs and the final shape.
func walk(name string, input []int, layers []layerSpec) ([]LayerCost, []int, error) {
	out := make([]LayerCost, len(layers))
	shape := input
	for i, s := range layers {
		next, err := s.outShape(shape)
		if err != nil {
			return nil, nil, fmt.Errorf("bnn: model %q layer %q: %v", name, s.name, err)
		}
		bytes := int64(sizeOf(next)+7) / 8 // binarized hidden traffic
		if i == len(layers)-1 {
			bytes = int64(sizeOf(next)) * 4 // fp32 logits
		}
		out[i] = s.cost(bytes)
		shape = next
	}
	return out, shape, nil
}

// validate is the shape check behind Model and Architecture: a
// non-empty stack whose shapes chain from input to [classes].
func validate(name string, input []int, classes int, layers []layerSpec) error {
	if len(layers) == 0 {
		return fmt.Errorf("bnn: model %q has no layers", name)
	}
	_, shape, err := walk(name, input, layers)
	if err != nil {
		return err
	}
	if len(shape) != 1 || shape[0] != classes {
		return fmt.Errorf("bnn: model %q final shape %v, want [%d]", name, shape, classes)
	}
	return nil
}

// costs is the cost walk behind Model and Architecture. A stack whose
// shapes do not chain panics: Validate reports it as an error first.
func costs(name string, input []int, layers []layerSpec) []LayerCost {
	out, _, err := walk(name, input, layers)
	if err != nil {
		panic(err.Error())
	}
	return out
}

func totalBinaryOps(cs []LayerCost) int64 {
	var total int64
	for _, c := range cs {
		if c.Kind == "binary" {
			total += c.Work.Ops()
		}
	}
	return total
}

func totalFPMACs(cs []LayerCost) int64 {
	var total int64
	for _, c := range cs {
		total += c.MACs
	}
	return total
}
