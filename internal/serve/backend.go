package serve

import (
	"fmt"
	"sync"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/tensor"
)

// Prediction is one request's output as produced by a backend.
type Prediction struct {
	// Class is the argmax of the logits.
	Class int
	// Logits is owned by the caller (backends must not reuse it).
	Logits []float64
}

// Backend is an inference execution engine the server can batch onto.
// Backends are factories: each server worker owns one Replica, so a
// backend implementation only needs its replicas — not itself — to be
// usable from a single goroutine at a time.
type Backend interface {
	// Name describes the backend for /stats and error messages.
	Name() string
	// InputShape is the model's per-request input shape; flat vectors
	// of the matching element count are also admitted.
	InputShape() []int
	// NewReplica builds an independent executor (own scratch, own
	// simulated arrays) for one worker goroutine.
	NewReplica() (Replica, error)
}

// Replica executes batches for one worker. RunBatch fills out[i] for
// xs[i]; out has len(xs). Replicas are never shared across goroutines.
type Replica interface {
	RunBatch(xs []*tensor.Float, out []Prediction) error
}

// LifetimeReplica is a Replica whose simulated device physics can age,
// degrade, and be recalibrated online — the contract device-lifetime
// mode (Config.Lifetime) requires of every replica. Hardware replicas
// implement it; software replicas do not age and cannot serve in
// lifetime mode (except as the fail-open fallback).
type LifetimeReplica interface {
	Replica
	// Age advances the replica's simulated device age (drift).
	Age(seconds float64)
	// Recalibrate re-programs every crossbar plane in place, resetting
	// drift age, and reports the priced write pass.
	Recalibrate() robust.RecalReport
	// InjectFaults re-draws the stuck-at population (wear-driven fault
	// arrival); returns the logically flipped cell count.
	InjectFaults(f crossbar.FaultModel) (int, error)
}

// --- software backend ----------------------------------------------------

// SoftwareBackend runs the exact bitops fast path: every replica is an
// internal/infer engine whose workers carry bnn.Model.CloneShared
// copies, so batch items fan out over the pool with zero steady-state
// allocations inside each worker.
type SoftwareBackend struct {
	model   *bnn.Model
	workers int
}

// NewSoftwareBackend validates the model and wraps it. inferWorkers is
// the per-replica pool size (< 1 means one per CPU).
func NewSoftwareBackend(m *bnn.Model, inferWorkers int) (*SoftwareBackend, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: software backend needs a model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &SoftwareBackend{model: m, workers: inferWorkers}, nil
}

// Name implements Backend.
func (b *SoftwareBackend) Name() string { return "software/" + b.model.Name() }

// InputShape implements Backend.
func (b *SoftwareBackend) InputShape() []int { return b.model.InputShape }

// NewReplica implements Backend.
func (b *SoftwareBackend) NewReplica() (Replica, error) {
	return &softwareReplica{eng: infer.New(b.model, b.workers)}, nil
}

type softwareReplica struct {
	eng *infer.Engine
}

func (r *softwareReplica) RunBatch(xs []*tensor.Float, out []Prediction) error {
	logits, err := r.eng.InferBatch(xs)
	if err != nil {
		return err
	}
	for i, l := range logits {
		// InferBatch clones results out of worker scratch, so the data
		// slice is safe to hand to the caller.
		out[i] = Prediction{Class: l.ArgMax(), Logits: l.Data()}
	}
	return nil
}

// --- hardware backend ----------------------------------------------------

// HardwareBackend runs the binary layers of every request on simulated
// analog crossbars (robust.HardwareModel) — the hardware-in-the-loop
// serving path. Each replica maps its own arrays (mapped layers carry
// scratch and are not concurrency-safe); replicas of one backend are
// seeded identically, so they are functionally interchangeable.
type HardwareBackend struct {
	model *bnn.Model
	cfg   robust.Config
}

// NewHardwareBackend validates the model and the hardware corner.
func NewHardwareBackend(m *bnn.Model, cfg robust.Config) (*HardwareBackend, error) {
	if m == nil {
		return nil, fmt.Errorf("serve: hardware backend needs a model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &HardwareBackend{model: m, cfg: cfg}, nil
}

// Name implements Backend.
func (b *HardwareBackend) Name() string {
	return fmt.Sprintf("hardware/%s/%v", b.model.Name(), b.cfg.Array.Tech)
}

// InputShape implements Backend.
func (b *HardwareBackend) InputShape() []int { return b.model.InputShape }

// NewReplica implements Backend.
func (b *HardwareBackend) NewReplica() (Replica, error) {
	// Each replica owns a CloneShared copy: the model's non-binarized
	// layers still run in software inside HardwareModel.Infer and reuse
	// layer scratch, which must not be shared across worker goroutines.
	hw, err := robust.Map(b.model.CloneShared(), b.cfg)
	if err != nil {
		return nil, err
	}
	return &hardwareReplica{hw: hw}, nil
}

type hardwareReplica struct {
	hw *robust.HardwareModel
}

func (r *hardwareReplica) RunBatch(xs []*tensor.Float, out []Prediction) error {
	for i, x := range xs {
		y, err := r.hw.Infer(x)
		if err != nil {
			return err
		}
		// The final software layers reuse model scratch — copy out.
		out[i] = Prediction{Class: y.ArgMax(), Logits: append([]float64(nil), y.Data()...)}
	}
	return nil
}

// Age implements LifetimeReplica: simulated drift on every mapped tile.
func (r *hardwareReplica) Age(seconds float64) { r.hw.AgeAll(seconds) }

// Recalibrate implements LifetimeReplica.
func (r *hardwareReplica) Recalibrate() robust.RecalReport { return r.hw.Recalibrate() }

// InjectFaults implements LifetimeReplica.
func (r *hardwareReplica) InjectFaults(f crossbar.FaultModel) (int, error) {
	return r.hw.InjectFaults(f)
}

// --- per-batch accelerator pricing ---------------------------------------

// Pricer prices every served batch on the tile-level pipelined
// simulator: the serving layer reports what the selected accelerator
// design *would* have delivered for the dynamic batch sizes the live
// stream actually produced — directly comparable to the offline
// eval.ThroughputAt ceiling. Safe for concurrent use by the server
// workers.
type Pricer struct {
	mu  sync.Mutex
	eng *sim.Engine
	// memo caches RunBatch by batch size: the engine is a pure
	// deterministic function of b, so each size is simulated once and a
	// saturated stream (every batch MaxBatch-sized) prices in O(1).
	memo map[int]*sim.BatchResult

	batches   int64
	samples   int64
	simNs     float64 // Σ batch makespans
	energyPJ  float64 // Σ per-sample energy
	latencyNs float64 // single-inference critical path (Fig. 7)
	ceiling   float64 // analytic steady-state inferences/s
	bneck     string
}

// NewPricer wraps a pipelined engine (see eval.Pipeline) and captures
// the design's analytic ceiling.
func NewPricer(eng *sim.Engine) (*Pricer, error) {
	br, err := eng.RunBatch(1)
	if err != nil {
		return nil, err
	}
	// Engine results are recycled by the engine's next run; the memo
	// keeps pricer-owned clones.
	br = br.Clone()
	return &Pricer{
		eng:       eng,
		memo:      map[int]*sim.BatchResult{1: br},
		latencyNs: br.LatencyNs,
		ceiling:   br.SteadyStatePerSec,
		bneck:     br.BottleneckName,
	}, nil
}

// price accumulates one served batch and returns the engine's result
// for that batch size (nil only on an engine error) — the trace joins
// the serving timeline to the simulated schedule through it. Called by
// server workers.
func (p *Pricer) price(b int) *sim.BatchResult {
	p.mu.Lock()
	defer p.mu.Unlock()
	br, ok := p.memo[b]
	if !ok {
		var err error
		br, err = p.eng.RunBatch(b)
		if err != nil {
			return nil // b above sim.MaxBatch; keep the serving path alive
		}
		br = br.Clone()
		p.memo[b] = br
	}
	p.batches++
	p.samples += int64(b)
	p.simNs += br.MakespanNs
	p.energyPJ += float64(b) * br.EnergyPJPerInference
	return br
}

// SimSnapshot is the accumulated simulated-accelerator view of the
// served stream.
type SimSnapshot struct {
	// Batches/Samples priced so far.
	Batches int64 `json:"batches"`
	Samples int64 `json:"samples"`
	// PerSec is the achieved simulated throughput: samples over the sum
	// of the batch makespans (what the accelerator would sustain if it
	// served exactly these batches back to back).
	PerSec float64 `json:"inferences_per_sec"`
	// CeilingPerSec is the pipeline's analytic steady-state bound;
	// Bottleneck names the saturated resource.
	CeilingPerSec float64 `json:"ceiling_per_sec"`
	Bottleneck    string  `json:"bottleneck"`
	// LatencyNs is the single-inference critical path (the Fig. 7
	// number for this network×design).
	LatencyNs float64 `json:"latency_ns"`
	// MeanEnergyPJ is the per-inference energy.
	MeanEnergyPJ float64 `json:"mean_energy_pj"`
}

// snapshot returns the current simulated-accelerator accounting.
func (p *Pricer) snapshot() SimSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := SimSnapshot{
		Batches:       p.batches,
		Samples:       p.samples,
		CeilingPerSec: p.ceiling,
		Bottleneck:    p.bneck,
		LatencyNs:     p.latencyNs,
	}
	if p.simNs > 0 {
		out.PerSec = float64(p.samples) * 1e9 / p.simNs
	}
	if p.samples > 0 {
		out.MeanEnergyPJ = p.energyPJ / float64(p.samples)
	}
	return out
}
