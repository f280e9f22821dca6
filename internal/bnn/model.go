package bnn

import (
	"fmt"

	"einsteinbarrier/internal/tensor"
)

// Model is an ordered stack of layers with a fixed input shape.
type Model struct {
	// ModelName identifies the network (e.g. "MLP-L").
	ModelName string
	// InputShape is the shape of one sample (e.g. [784] or [3,32,32]).
	InputShape []int
	// Layers run in order.
	Layers []Layer
	// Classes is the output dimensionality.
	Classes int

	batch *modelBatch // InferBatchBits staging (batch.go); nil in clones
}

// Name returns the model name.
func (m *Model) Name() string { return m.ModelName }

// Validate shape-checks the whole stack.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("bnn: model %q has no layers", m.ModelName)
	}
	shape := m.InputShape
	for _, l := range m.Layers {
		func() {
			defer func() {
				if r := recover(); r != nil {
					panic(fmt.Sprintf("bnn: model %q layer %q: %v", m.ModelName, l.Name(), r))
				}
			}()
			shape = l.OutShape(shape)
		}()
	}
	if len(shape) != 1 || shape[0] != m.Classes {
		return fmt.Errorf("bnn: model %q final shape %v, want [%d]", m.ModelName, shape, m.Classes)
	}
	return nil
}

// Infer runs the reference forward pass and returns the logits.
//
// Layers reuse internal scratch buffers, so steady-state inference
// allocates nothing per layer; the returned tensor is owned by the
// final layer and overwritten by the next Infer call on this model
// (Clone it to retain). Infer is not safe for concurrent use on the
// same model — hand each goroutine its own CloneShared copy, or use the
// internal/infer engine, which does so automatically.
func (m *Model) Infer(x *tensor.Float) *tensor.Float {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Predict returns the argmax class of the logits.
func (m *Model) Predict(x *tensor.Float) int { return m.Infer(x).ArgMax() }

// CloneShared returns a copy of the model whose layers share the
// (inference-immutable) weight storage with m but own fresh scratch
// buffers, so the copy can run Infer concurrently with m. Layer types
// outside this package are reused as-is and must be stateless.
func (m *Model) CloneShared() *Model {
	c := &Model{
		ModelName:  m.ModelName,
		InputShape: append([]int(nil), m.InputShape...),
		Layers:     make([]Layer, len(m.Layers)),
		Classes:    m.Classes,
	}
	for i, l := range m.Layers {
		if sc, ok := l.(sharedCloner); ok {
			c.Layers[i] = sc.cloneShared()
		} else {
			c.Layers[i] = l
		}
	}
	return c
}

// binaryWorkloads collects the XNOR+Popcount workload of every
// binarized layer, in execution order. This is the input to the
// compiler and to the analytic cost models.
func (m *Model) binaryWorkloads() []Workload {
	var out []Workload
	for _, l := range m.Layers {
		if b, ok := l.(Binarized); ok {
			out = append(out, b.Workload())
		}
	}
	return out
}

// LayerCost summarizes one layer for the cost models.
type LayerCost struct {
	Name string
	// Kind is "binary", "fp", or "shape" (free reshapes/pools).
	Kind string
	// Work is the layer geometry: for binary layers the XNOR+Popcount
	// workload; for fp layers the equivalent N×M×Positions shape of the
	// bit-sliced crossbar execution.
	Work Workload
	// FP multiply-accumulates (Kind == "fp").
	MACs int64
	// ActivationBytes is the output traffic of the layer: BNN hidden
	// activations move as single bits (every hidden layer's output is
	// binarized by the next consumer), while the final logits are fp32.
	ActivationBytes int64
}

// Costs walks the stack and produces per-layer cost descriptors,
// tracking activation shapes to size the data movement.
func (m *Model) Costs() []LayerCost {
	var out []LayerCost
	shape := m.InputShape
	for i, l := range m.Layers {
		next := l.OutShape(shape)
		bytes := int64(sizeOf(next)+7) / 8 // binarized hidden traffic
		if i == len(m.Layers)-1 {
			bytes = int64(sizeOf(next)) * 4 // fp32 logits
		}
		switch t := l.(type) {
		case Binarized:
			out = append(out, LayerCost{
				Name: l.Name(), Kind: "binary", Work: t.Workload(), ActivationBytes: bytes,
			})
		case *DenseFP:
			out = append(out, LayerCost{
				Name: l.Name(), Kind: "fp", MACs: t.macs(), ActivationBytes: bytes,
				Work: Workload{LayerName: l.Name(), N: t.outDim(), M: t.inDim(), Positions: 1},
			})
		case *ConvFP:
			out = append(out, LayerCost{
				Name: l.Name(), Kind: "fp", MACs: t.macs(), ActivationBytes: bytes,
				Work: Workload{LayerName: l.Name(), N: t.OutC, M: t.Geom.PatchLen(), Positions: t.Geom.Positions()},
			})
		default:
			out = append(out, LayerCost{Name: l.Name(), Kind: "shape", ActivationBytes: bytes})
		}
		shape = next
	}
	return out
}

// TotalBinaryOps sums the XNOR+Popcount bit operations per inference.
func (m *Model) TotalBinaryOps() int64 {
	var total int64
	for _, w := range m.binaryWorkloads() {
		total += w.Ops()
	}
	return total
}

// TotalFPMACs sums the high-precision MACs per inference.
func (m *Model) TotalFPMACs() int64 {
	var total int64
	for _, c := range m.Costs() {
		total += c.MACs
	}
	return total
}

// WeightBits counts the binary weight storage of the model.
func (m *Model) WeightBits() int64 {
	var total int64
	for _, w := range m.binaryWorkloads() {
		total += int64(w.N) * int64(w.M)
	}
	return total
}

func sizeOf(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
