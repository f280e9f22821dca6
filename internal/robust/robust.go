// Package robust runs BNN inference with the binary layers executing on
// the *simulated analog hardware* (internal/core mappings over
// internal/crossbar arrays) instead of exact software arithmetic, and
// quantifies the accuracy impact of device noise, WDM crosstalk and
// stuck-at defects.
//
// This is the hardware-in-the-loop counterpart of the paper's §II-C
// robustness argument (binary PCM stays accurate where multi-level PCM
// does not — Cardoso et al., DATE 2023) and of §V-C ("neither TacitMap
// nor EinsteinBarrier affect the accuracy"): at the default device
// corner, hardware predictions must agree with software; the sweeps
// show how far the corner can degrade before they stop agreeing.
package robust

import (
	"fmt"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/dataset"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/tensor"
)

// Config selects the hardware corner for the binary layers.
type Config struct {
	// Array is the crossbar configuration (technology, size, noise).
	Array crossbar.Config
	// WDM batches conv positions through MMM when > 1 (oPCM only).
	WDM int
	// Faults, when non-zero, injects stuck-at defects into every tile.
	Faults crossbar.FaultModel
	// Workers bounds the sweep fan-out: every corner of a sweep is an
	// independent job (its own mapped arrays, its own model clone) on
	// an infer.Map worker pool. 0 (the default) means one worker per
	// available CPU; 1 forces the serial path. Sweep results are
	// bit-identical at any worker count — corners are seeded
	// independently.
	Workers int
}

// DefaultConfig returns the default hardware corner for a technology.
func DefaultConfig(tech device.Technology) Config {
	arr := crossbar.DefaultConfig(tech)
	wdm := 1
	if tech == device.OPCM {
		wdm = 16
	}
	return Config{Array: arr, WDM: wdm}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Array.Validate(); err != nil {
		return err
	}
	if c.WDM < 1 {
		return fmt.Errorf("robust: WDM %d must be ≥ 1", c.WDM)
	}
	if c.WDM > 1 && c.Array.Tech != device.OPCM {
		return fmt.Errorf("robust: WDM batching requires oPCM arrays")
	}
	return c.Faults.Validate()
}

// HardwareModel is a Model whose binarized layers are programmed onto
// simulated crossbars.
//
// Each mapped layer carries reusable inference scratch (the binarized
// input vector, the popcount accumulator, and the WDM batch rows), so
// the per-layer hardware execution performs no steady-state heap
// allocations beyond the output tensors. A HardwareModel is therefore
// not safe for concurrent inference.
type HardwareModel struct {
	model  *bnn.Model
	cfg    Config
	mapped map[string]*core.TacitMapped
	// scratch is keyed like mapped.
	scratch map[string]*layerScratch
	// FlippedCells counts fault-induced logical flips at map time.
	FlippedCells int
}

// layerScratch is the reusable per-layer hardware-execution state.
type layerScratch struct {
	xb  *bitops.Vector // binarized dense-layer input
	pc  []int          // popcount output (length n)
	mmm [][]int        // WDM batch popcount rows (k × n)
}

// Map programs every binarized layer of the model onto crossbars.
func Map(model *bnn.Model, cfg Config) (*HardwareModel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	h := &HardwareModel{
		model:   model,
		cfg:     cfg,
		mapped:  make(map[string]*core.TacitMapped),
		scratch: make(map[string]*layerScratch),
	}
	seed := cfg.Array.Seed
	for _, l := range model.Layers {
		b, ok := l.(bnn.Binarized)
		if !ok {
			continue
		}
		acfg := cfg.Array
		acfg.Seed = seed
		seed += 1000
		tm, err := core.MapTacit(b.WeightMatrix(), acfg)
		if err != nil {
			return nil, fmt.Errorf("robust: layer %s: %w", l.Name(), err)
		}
		if cfg.Faults.StuckOnRate > 0 || cfg.Faults.StuckOffRate > 0 {
			n, err := tm.InjectFaults(cfg.Faults)
			if err != nil {
				return nil, err
			}
			h.FlippedCells += n
		}
		h.mapped[l.Name()] = tm
		sc := &layerScratch{
			xb: bitops.NewVector(tm.Plan().M),
			pc: make([]int, tm.Plan().N),
		}
		if cfg.WDM > 1 {
			sc.mmm = make([][]int, cfg.WDM)
			for i := range sc.mmm {
				sc.mmm[i] = make([]int, tm.Plan().N)
			}
		}
		h.scratch[l.Name()] = sc
	}
	return h, nil
}

// Infer runs the forward pass with binary layers on hardware. The
// non-binarized layers (FP input/output, sign, pooling, flatten) run in
// software, exactly as the accelerator's digital units would.
func (h *HardwareModel) Infer(x *tensor.Float) (*tensor.Float, error) {
	for _, l := range h.model.Layers {
		switch t := l.(type) {
		case *bnn.BinaryDense:
			y, err := h.denseOnHW(t, x)
			if err != nil {
				return nil, err
			}
			x = y
		case *bnn.BinaryConv2D:
			y, err := h.convOnHW(t, x)
			if err != nil {
				return nil, err
			}
			x = y
		default:
			x = l.Forward(x)
		}
	}
	return x, nil
}

// Predict returns the argmax class.
func (h *HardwareModel) Predict(x *tensor.Float) (int, error) {
	logits, err := h.Infer(x)
	if err != nil {
		return 0, err
	}
	return logits.ArgMax(), nil
}

func (h *HardwareModel) denseOnHW(l *bnn.BinaryDense, x *tensor.Float) (*tensor.Float, error) {
	tm := h.mapped[l.Name()]
	sc := h.scratch[l.Name()]
	sc.xb.SetFromFloats(x.Data())
	pc, err := tm.ExecuteInto(sc.xb, sc.pc)
	if err != nil {
		return nil, err
	}
	m := l.W.Cols()
	y := tensor.NewFloat(l.W.Rows())
	for o, c := range pc {
		if 2*c-m >= l.Thresh[o] {
			y.Data()[o] = 1
		} else {
			y.Data()[o] = -1
		}
	}
	return y, nil
}

func (h *HardwareModel) convOnHW(l *bnn.BinaryConv2D, x *tensor.Float) (*tensor.Float, error) {
	tm := h.mapped[l.Name()]
	sc := h.scratch[l.Name()]
	patches := l.PatchVectors(x)
	pos := l.Geom.Positions()
	m := l.Geom.PatchLen()
	y := tensor.NewFloat(l.OutC, l.Geom.OutH(), l.Geom.OutW())
	apply := func(p int, pc []int) {
		for o := 0; o < l.OutC; o++ {
			v := -1.0
			if 2*pc[o]-m >= l.Thresh[o] {
				v = 1
			}
			y.Data()[o*pos+p] = v
		}
	}
	if h.cfg.WDM > 1 {
		for start := 0; start < len(patches); start += h.cfg.WDM {
			end := min(start+h.cfg.WDM, len(patches))
			counts, err := tm.ExecuteMMMInto(patches[start:end], sc.mmm[:end-start])
			if err != nil {
				return nil, err
			}
			for i, pc := range counts {
				apply(start+i, pc)
			}
		}
		return y, nil
	}
	for p, patch := range patches {
		pc, err := tm.ExecuteInto(patch, sc.pc)
		if err != nil {
			return nil, err
		}
		apply(p, pc)
	}
	return y, nil
}

// Agreement is the outcome of a software-vs-hardware comparison.
type Agreement struct {
	// Samples evaluated.
	Samples int
	// Matches counts identical top-1 predictions.
	Matches int
	// SoftwareAccuracy / HardwareAccuracy against the true labels.
	SoftwareAccuracy, HardwareAccuracy float64
}

// MatchRate is Matches/Samples.
func (a Agreement) MatchRate() float64 {
	if a.Samples == 0 {
		return 0
	}
	return float64(a.Matches) / float64(a.Samples)
}

// compare runs software and hardware inference over the samples.
func compare(model *bnn.Model, hw *HardwareModel, samples []dataset.Sample) (Agreement, error) {
	var a Agreement
	swCorrect, hwCorrect := 0, 0
	for _, s := range samples {
		x := s.X
		if len(model.InputShape) == 1 {
			x = x.Reshape(model.InputShape[0])
		}
		sw := model.Predict(x.Clone())
		hwPred, err := hw.Predict(x.Clone())
		if err != nil {
			return a, err
		}
		a.Samples++
		if sw == hwPred {
			a.Matches++
		}
		if sw == s.Label {
			swCorrect++
		}
		if hwPred == s.Label {
			hwCorrect++
		}
	}
	if a.Samples > 0 {
		a.SoftwareAccuracy = float64(swCorrect) / float64(a.Samples)
		a.HardwareAccuracy = float64(hwCorrect) / float64(a.Samples)
	}
	return a, nil
}

// SweepPoint is one corner of a robustness sweep.
type SweepPoint struct {
	// Label identifies the corner (e.g. "sigma=0.05").
	Label string
	// Agreement at that corner.
	Agreement Agreement
}

// sweep fans corner evaluations out over base.Workers goroutines.
// Every corner maps its own HardwareModel and compares against a
// per-worker CloneShared copy of the software model (neither a mapped
// layer's scratch nor a model's forward scratch is safe to share), so
// parallel results are bit-identical to the serial path.
func sweep(model *bnn.Model, samples []dataset.Sample, base Config, n int,
	corner func(i int) (string, Config, func(*HardwareModel))) ([]SweepPoint, error) {
	clones := make([]*bnn.Model, infer.Workers(base.Workers, n))
	return infer.Map(base.Workers, n, func(w, i int) (SweepPoint, error) {
		label, cfg, prep := corner(i)
		// Map a CloneShared copy: HardwareModel.Infer runs the
		// non-binarized layers through the stored model's own scratch,
		// which must not be shared across corner goroutines.
		hw, err := Map(model.CloneShared(), cfg)
		if err != nil {
			return SweepPoint{}, err
		}
		if prep != nil {
			prep(hw)
		}
		if clones[w] == nil {
			clones[w] = model.CloneShared()
		}
		a, err := compare(clones[w], hw, samples)
		if err != nil {
			return SweepPoint{}, err
		}
		return SweepPoint{Label: label, Agreement: a}, nil
	})
}

// NoiseSweep evaluates prediction agreement across programming-spread
// corners — the quantitative §II-C story: agreement stays ~1.0 in the
// binary-robust regime and collapses as the spread approaches the
// read window.
func NoiseSweep(model *bnn.Model, samples []dataset.Sample, base Config, sigmas []float64) ([]SweepPoint, error) {
	return sweep(model, samples, base, len(sigmas), func(i int) (string, Config, func(*HardwareModel)) {
		sigma := sigmas[i]
		cfg := base
		switch cfg.Array.Tech {
		case device.EPCM:
			cfg.Array.EPCM.ProgramSigma = sigma
		case device.OPCM:
			cfg.Array.OPCM.ProgramSigma = sigma
		}
		return fmt.Sprintf("sigma=%g", sigma), cfg, nil
	})
}

// RecalReport summarizes one closed-loop recalibration pass: how much
// re-programming was done and what it cost under the device write
// energies. Serving-layer controllers aggregate these into per-replica
// lifetime energy totals.
type RecalReport struct {
	// Layers and Tiles re-programmed.
	Layers, Tiles int
	// SetWrites / ResetWrites are the per-cell write counts.
	SetWrites, ResetWrites int64
	// EnergyPJ and LatencyNs price the pass via the device write costs
	// (energy.ReprogramForTech; tiles serialized).
	EnergyPJ, LatencyNs float64
}

// Recalibrate re-programs every mapped layer's crossbar tiles in place:
// drift ages reset to zero, programming variability is re-drawn
// deterministically (each tile's RNG restarts from its seed, so
// recalibrating twice yields bit-identical planes), and stuck-at
// defects are re-applied — recalibration cannot heal physical damage.
// The pass is priced from the write counts and the configured device
// parameters.
func (h *HardwareModel) Recalibrate() RecalReport {
	var r RecalReport
	for _, tm := range h.mapped {
		set, reset := tm.Reprogram()
		cost := energy.ReprogramForTech(h.cfg.Array.Tech, set, reset,
			h.cfg.Array.Rows, h.cfg.Array.EPCM, h.cfg.Array.OPCM)
		r.Layers++
		r.Tiles += tm.Tiles()
		r.SetWrites += set
		r.ResetWrites += reset
		r.EnergyPJ += cost.EnergyPJ
		r.LatencyNs += cost.LatencyNs
	}
	return r
}

// InjectFaults re-draws the stuck-at defect population across every
// mapped layer from the given model, replacing any previous population
// (each tile derives its placement from the model seed, so a fixed seed
// with a growing rate yields a monotonically growing fault set — the
// online fault-arrival primitive). Returns the flipped-cell count,
// which also replaces FlippedCells.
func (h *HardwareModel) InjectFaults(f crossbar.FaultModel) (int, error) {
	flipped := 0
	for _, tm := range h.mapped {
		n, err := tm.InjectFaults(f)
		if err != nil {
			return flipped, err
		}
		flipped += n
	}
	h.FlippedCells = flipped
	return flipped, nil
}

// AgeAll advances every mapped layer's device age (ePCM drift study;
// a no-op for oPCM arrays, which do not drift — paper §II-C).
func (h *HardwareModel) AgeAll(seconds float64) {
	for _, tm := range h.mapped {
		tm.Age(seconds)
	}
}

// DriftSweep evaluates prediction agreement after increasing amounts of
// post-programming time on ePCM hardware. Binary read windows survive
// drift (the RESET state only gets *more* resistive), so agreement
// should hold across any realistic refresh interval — quantifying why
// the binary design point also neutralizes the drift challenge.
func DriftSweep(model *bnn.Model, samples []dataset.Sample, base Config, ages []float64) ([]SweepPoint, error) {
	return sweep(model, samples, base, len(ages), func(i int) (string, Config, func(*HardwareModel)) {
		age := ages[i]
		return fmt.Sprintf("age=%gs", age), base, func(hw *HardwareModel) { hw.AgeAll(age) }
	})
}

// FaultSweep evaluates prediction agreement across defect densities.
func FaultSweep(model *bnn.Model, samples []dataset.Sample, base Config, rates []float64) ([]SweepPoint, error) {
	return sweep(model, samples, base, len(rates), func(i int) (string, Config, func(*HardwareModel)) {
		rate := rates[i]
		cfg := base
		cfg.Faults = crossbar.FaultModel{StuckOnRate: rate / 2, StuckOffRate: rate / 2, Seed: 99}
		return fmt.Sprintf("defects=%g", rate), cfg, nil
	})
}
