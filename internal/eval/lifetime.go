package eval

import (
	"fmt"
	"math"
	"strings"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/trace"
)

// Device-lifetime evaluation: the robustness study (Fig. 8) prices
// drift and faults statically; RunLifetime closes the loop by serving a
// live request stream on ageing hardware replicas and measuring what
// the canary-driven recalibration policy delivers — availability, the
// accuracy-over-time trace, recalibration energy in joules, and the
// latency SLO inside drain windows.

// LifetimeScenario parameterizes one device-lifetime serving run.
type LifetimeScenario struct {
	// Model is a zoo network name (bnn.NewModel).
	Model string
	// Design selects the accelerator used for per-batch pricing; a
	// negative value disables the Pricer.
	Design arch.Design
	// Eval supplies the architecture/cost tables for the Pricer
	// (DefaultConfig when zero-valued Arch dims are detected is NOT
	// applied — pass eval.DefaultConfig()).
	Eval Config
	// Hardware is the device corner the replicas are mapped at.
	Hardware robust.Config
	// Workers is the hardware replica count (default 1); MaxBatch caps
	// the dynamic batcher (default 4).
	Workers  int
	MaxBatch int
	// Requests is the total arrivals (required).
	Requests int
	// Seed drives the model weights, the canary probes, and the request
	// payloads.
	Seed int64
	// CanarySize is the labeled probe count (default 16).
	CanarySize int
	// Lifetime is the lifecycle policy. Clock and Canary may be left
	// nil: the runner installs a BatchClock{SecondsPerSample} and a
	// seeded canary set.
	Lifetime serve.LifetimeConfig
	// SecondsPerSample scales simulated device time per served sample
	// when Lifetime.Clock is nil. The drift horizon covered by the run
	// is Requests·SecondsPerSample.
	SecondsPerSample float64
	// Fallback enables the fail-open software path.
	Fallback bool
	// Diurnal, when non-nil, drives arrivals with a rate-modulated
	// Poisson schedule (serve.DiurnalSchedule); nil uses the
	// deterministic closed loop with Clients clients (default 1 —
	// fully reproducible trace at Workers=1).
	Diurnal *DiurnalLoad
	Clients int
	// Trace, when non-nil, receives the serving-side span trace
	// (serve.Config.Trace): request spans, batch slices, and the
	// lifetime lifecycle events (canary/recalibrate/retire/fallback).
	Trace *trace.Recorder
}

// DiurnalLoad is the day/night arrival modulation.
type DiurnalLoad struct {
	// BaseRate/PeakRate bound the instantaneous arrival rate (req/s,
	// wall clock); Period is one full day/night cycle.
	BaseRate float64
	PeakRate float64
	Period   time.Duration
}

// LifetimeReport is the outcome of one device-lifetime run.
type LifetimeReport struct {
	Model  string `json:"model"`
	Design string `json:"design"`
	// HorizonSeconds is the simulated device time the run spans (max
	// replica wear).
	HorizonSeconds float64 `json:"horizon_seconds"`
	// Requests partition: Completed replies arrived, Shed were refused
	// at admission, Failed errored.
	Requests  int   `json:"requests"`
	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	// AvailabilityPct is Completed / (Accepted + Shed) — the fraction
	// of offered load that got an answer.
	AvailabilityPct float64 `json:"availability_pct"`
	// Recalibration accounting, priced by the energy cost model.
	Recalibrations int64   `json:"recalibrations"`
	Retired        int     `json:"retired"`
	RecalEnergyJ   float64 `json:"recal_energy_j"`
	RecalLatencyMs float64 `json:"recal_latency_ms"`
	// FallbackServed counts samples answered by the fail-open software
	// path.
	FallbackServed int64 `json:"fallback_served"`
	// Drain-window latency SLO: requests served while a replica was out
	// of rotation.
	DrainServed int64   `json:"drain_served"`
	DrainP99Ms  float64 `json:"drain_p99_ms"`
	// MeanCanary / MinCanary summarize the accuracy-over-time trace;
	// Trace is the full canary series.
	MeanCanary float64             `json:"mean_canary_accuracy"`
	MinCanary  float64             `json:"min_canary_accuracy"`
	Trace      []serve.CanaryPoint `json:"trace"`
	// Lifetime is the final per-replica lifecycle state.
	Lifetime *serve.LifetimeSnapshot `json:"lifetime"`
	// Stats is the server's full metrics snapshot.
	Stats serve.Snapshot `json:"stats"`
}

// RunLifetime serves sc.Requests arrivals through ageing hardware
// replicas of the zoo model and reports the closed recalibration loop's
// outcome. With the closed-loop generator, one worker, and a
// jitter-free clock the entire report (minus wall-clock latencies) is a
// deterministic function of the scenario.
func RunLifetime(sc LifetimeScenario) (LifetimeReport, error) {
	if sc.Requests <= 0 {
		return LifetimeReport{}, fmt.Errorf("eval: lifetime run needs Requests > 0, got %d", sc.Requests)
	}
	// The policy and the clock need no model: check them before building
	// the model, the hardware replicas, the canary set and the pricer.
	life := sc.Lifetime
	if err := life.ValidatePolicy(); err != nil {
		return LifetimeReport{}, err
	}
	if life.Clock == nil {
		if !(sc.SecondsPerSample > 0) || math.IsInf(sc.SecondsPerSample, 1) {
			return LifetimeReport{}, fmt.Errorf("eval: lifetime run needs a Clock or a finite SecondsPerSample > 0, got %g", sc.SecondsPerSample)
		}
		life.Clock = serve.BatchClock{SecondsPerSample: sc.SecondsPerSample}
	}
	model, err := bnn.NewModel(sc.Model, sc.Seed)
	if err != nil {
		return LifetimeReport{}, err
	}
	backend, err := serve.NewHardwareBackend(model, sc.Hardware)
	if err != nil {
		return LifetimeReport{}, err
	}
	size := 1
	for _, d := range model.InputShape {
		size *= d
	}

	if life.Canary == nil {
		n := sc.CanarySize
		if n <= 0 {
			n = 16
		}
		canary, err := serve.NewCanarySet(model, serve.SyntheticInputs(size, n, sc.Seed+1))
		if err != nil {
			return LifetimeReport{}, err
		}
		life.Canary = canary
	}
	if sc.Fallback && life.Fallback == nil {
		life.Fallback = model
	}

	cfg := serve.Config{
		Backend:  backend,
		Workers:  max(sc.Workers, 1),
		MaxBatch: sc.MaxBatch,
		Lifetime: &life,
		Trace:    sc.Trace,
	}
	designName := ""
	if sc.Design >= 0 {
		eng, err := Pipeline(sc.Eval, model, sc.Design)
		if err != nil {
			return LifetimeReport{}, err
		}
		pricer, err := serve.NewPricer(eng)
		if err != nil {
			return LifetimeReport{}, err
		}
		cfg.Pricer = pricer
		designName = sc.Design.String()
	}
	s, err := serve.New(cfg)
	if err != nil {
		return LifetimeReport{}, err
	}
	defer s.Stop()

	load := serve.LoadConfig{
		Requests: sc.Requests,
		Seed:     sc.Seed + 2,
		Clients:  max(sc.Clients, 1),
		Inputs:   serve.SyntheticInputs(size, min(sc.Requests, 256), sc.Seed+3),
	}
	if d := sc.Diurnal; d != nil {
		load.Arrivals, err = serve.DiurnalSchedule(sc.Seed+2, d.BaseRate, d.PeakRate, d.Period, sc.Requests)
		if err != nil {
			return LifetimeReport{}, err
		}
	}
	lr, err := serve.Run(s, load)
	if err != nil {
		return LifetimeReport{}, err
	}
	// Replies are delivered before the lifecycle bookkeeping for their
	// batch runs; Stop joins the workers so the final snapshot and trace
	// include every served batch.
	s.Stop()
	lr.Stats = s.Stats()
	return buildLifetimeReport(sc, designName, s, lr), nil
}

func buildLifetimeReport(sc LifetimeScenario, designName string, s *serve.Server, lr serve.LoadReport) LifetimeReport {
	rep := LifetimeReport{
		Model:     sc.Model,
		Design:    designName,
		Requests:  sc.Requests,
		Completed: lr.Completed,
		Shed:      lr.Shed,
		Failed:    lr.Failed,
		Trace:     s.Trace(),
		Stats:     lr.Stats,
		Lifetime:  lr.Stats.Lifetime,
	}
	if offered := lr.Stats.Accepted + lr.Stats.Shed; offered > 0 {
		rep.AvailabilityPct = 100 * float64(lr.Completed) / float64(offered)
	}
	if lt := rep.Lifetime; lt != nil {
		rep.Recalibrations = lt.Recalibrations
		rep.Retired = lt.Retired
		rep.RecalEnergyJ = lt.RecalEnergyPJ * 1e-12
		rep.RecalLatencyMs = lt.RecalLatencyNs * 1e-6
		rep.FallbackServed = lt.FallbackServed
		for _, r := range lt.Replicas {
			if r.WearSeconds > rep.HorizonSeconds {
				rep.HorizonSeconds = r.WearSeconds
			}
		}
	}
	if dl := lr.Stats.DrainLatency; dl != nil {
		rep.DrainServed = lr.Stats.DrainServed
		rep.DrainP99Ms = dl.P99
	}
	if len(rep.Trace) > 0 {
		sum, minAcc := 0.0, rep.Trace[0].Accuracy
		for _, p := range rep.Trace {
			sum += p.Accuracy
			if p.Accuracy < minAcc {
				minAcc = p.Accuracy
			}
		}
		rep.MeanCanary = sum / float64(len(rep.Trace))
		rep.MinCanary = minAcc
	}
	return rep
}

// Table renders the report as a text summary over the canary
// accuracy-over-time trace. Its CSV form is the trace itself:
// trace.WriteCSV on LifetimeTraceRecorder.
func (r LifetimeReport) Table() *report.Table {
	title := "Device lifetime: " + r.Model
	if r.Design != "" {
		title += " on " + r.Design
	}
	lines := []string{
		fmt.Sprintf("%s — %.0f simulated device-seconds", title, r.HorizonSeconds),
		fmt.Sprintf("  availability      %8.3f %%  (%d completed, %d shed, %d failed)", r.AvailabilityPct, r.Completed, r.Shed, r.Failed),
		fmt.Sprintf("  recalibrations    %8d     (%.3g J, %.3g ms write time)", r.Recalibrations, r.RecalEnergyJ, r.RecalLatencyMs),
		fmt.Sprintf("  retired replicas  %8d", r.Retired),
		fmt.Sprintf("  fallback served   %8d samples", r.FallbackServed),
	}
	if r.DrainServed > 0 {
		lines = append(lines, fmt.Sprintf("  drain p99         %8.3f ms  over %d requests", r.DrainP99Ms, r.DrainServed))
	}
	lines = append(lines, fmt.Sprintf("  canary accuracy   %8.4f mean, %.4f min over %d probes", r.MeanCanary, r.MinCanary, len(r.Trace)), "")
	t := &report.Table{Title: strings.Join(lines, "\n"), Cols: []report.Col{{Head: "served"}, {Head: "replica"},
		{Head: "age s", Fmt: "%.0f"}, {Head: "accuracy", Fmt: "%.4f"}, {Head: "event"}}}
	for _, p := range r.Trace {
		event := ""
		switch {
		case p.PostRecal:
			event = "post-recal"
		case p.Flagged:
			event = "flagged"
		}
		t.Add(p.ServedSamples, p.Replica, p.AgeSeconds, p.Accuracy, event)
	}
	return t
}
