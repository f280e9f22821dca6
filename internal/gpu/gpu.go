// Package gpu is the Baseline-GPU analytical model (paper §V-B): a
// roofline estimate of BNN inference on a data-center GPU running
// XNOR-popcount kernels (cf. PhoneBit / Nurvitadhi et al.). Each layer
// pays a kernel launch, then the maximum of its compute time and its
// memory time; weights stream from DRAM every inference (batch 1, no
// persistence), which is the data-movement overhead CIM removes.
package gpu

import (
	"fmt"

	"einsteinbarrier/internal/bnn"
)

// Model holds the GPU machine parameters.
type Model struct {
	// FP32PerNs is the effective full-precision throughput in MAC/ns at
	// batch 1 (far below peak: small GEMMs underfill the SMs).
	FP32PerNs float64
	// BinOpsPerNs is the effective XNOR+popcount throughput in
	// bit-op/ns at batch 1.
	BinOpsPerNs float64
	// BytesPerNs is the effective DRAM bandwidth (a 300 GB/s part moves
	// 300 B/ns).
	BytesPerNs float64
	// DenseOverheadNs is the per-layer overhead of a dense layer: one
	// GEMV kernel launch plus framework dispatch.
	DenseOverheadNs float64
	// ConvOverheadNs is the per-layer overhead of a convolution at
	// batch 1: im2col + GEMM + binarize/pool kernels and algorithm
	// selection — several launches, the dominant cost of small CNNs
	// (cf. PhoneBit's motivation).
	ConvOverheadNs float64
	// PowerW is the board power while busy, for energy estimates.
	PowerW float64
}

// DefaultModel returns a V100-class part at inference batch 1.
func DefaultModel() Model {
	return Model{
		FP32PerNs:       2000,
		BinOpsPerNs:     20000,
		BytesPerNs:      300,
		DenseOverheadNs: 8000,
		ConvOverheadNs:  150000,
		PowerW:          250,
	}
}

// Validate checks the parameters.
func (m Model) Validate() error {
	if m.FP32PerNs <= 0 || m.BinOpsPerNs <= 0 || m.BytesPerNs <= 0 {
		return fmt.Errorf("gpu: throughputs must be positive: %+v", m)
	}
	if m.DenseOverheadNs < 0 || m.ConvOverheadNs < 0 || m.PowerW < 0 {
		return fmt.Errorf("gpu: negative overhead/power: %+v", m)
	}
	return nil
}

// overhead returns the per-layer dispatch cost by layer shape.
func (m Model) overhead(c bnn.LayerCost) float64 {
	if c.Work.Positions > 1 {
		return m.ConvOverheadNs
	}
	return m.DenseOverheadNs
}

// layerLatencyNs prices one layer.
func (m Model) layerLatencyNs(c bnn.LayerCost) float64 {
	switch c.Kind {
	case "binary":
		ops := float64(c.Work.Ops())
		weightBytes := float64(c.Work.N) * float64(c.Work.M) / 8
		bytes := float64(c.ActivationBytes) + weightBytes
		return m.overhead(c) + max(ops/m.BinOpsPerNs, bytes/m.BytesPerNs)
	case "fp":
		macs := float64(c.MACs)
		weightBytes := float64(c.Work.N) * float64(c.Work.M) * 4
		bytes := float64(c.ActivationBytes) + weightBytes
		return m.overhead(c) + max(macs/m.FP32PerNs, bytes/m.BytesPerNs)
	default: // shape layers fuse into neighbors
		return 0
	}
}

// InferenceLatencyNs prices a full single-sample inference.
func (m Model) InferenceLatencyNs(model *bnn.Model) float64 {
	var total float64
	for _, c := range model.Costs() {
		total += m.layerLatencyNs(c)
	}
	return total
}

// InferenceEnergyPJ estimates energy as busy power × latency.
// (1 W × 1 ns = 1 nJ = 1000 pJ.)
func (m Model) InferenceEnergyPJ(model *bnn.Model) float64 {
	return m.PowerW * m.InferenceLatencyNs(model) * 1000
}
