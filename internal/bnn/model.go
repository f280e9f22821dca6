package bnn

import "einsteinbarrier/internal/tensor"

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

// Validate shape-checks the whole stack. A stack whose shapes do not
// chain (say, a pooling layer fed a flat vector) is an error.
func (m *Model) Validate() error {
	return validate(m.ModelName, m.InputShape, m.Classes, m.specs())
}

// specs returns the layers' weightless geometry.
func (m *Model) specs() []layerSpec {
	out := make([]layerSpec, len(m.Layers))
	for i, l := range m.Layers {
		out[i] = l.spec()
	}
	return out
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
// buffers, so the copy can run Infer concurrently with m.
func (m *Model) CloneShared() *Model {
	c := &Model{
		ModelName:  m.ModelName,
		InputShape: append([]int(nil), m.InputShape...),
		Layers:     make([]Layer, len(m.Layers)),
		Classes:    m.Classes,
	}
	for i, l := range m.Layers {
		c.Layers[i] = l.cloneShared()
	}
	return c
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
// tracking activation shapes to size the data movement. It panics on a
// stack Validate rejects.
func (m *Model) Costs() []LayerCost { return costs(m.ModelName, m.InputShape, m.specs()) }

// TotalBinaryOps sums the XNOR+Popcount bit operations per inference.
func (m *Model) TotalBinaryOps() int64 { return totalBinaryOps(m.Costs()) }

// TotalFPMACs sums the high-precision MACs per inference.
func (m *Model) TotalFPMACs() int64 { return totalFPMACs(m.Costs()) }

// WeightBits counts the binary weight storage of the model.
func (m *Model) WeightBits() int64 {
	var total int64
	for _, c := range m.Costs() {
		if c.Kind == "binary" {
			total += int64(c.Work.N) * int64(c.Work.M)
		}
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
