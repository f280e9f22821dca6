package eval

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/sim"
)

// Batch-throughput evaluation: the paper's Fig. 7/8 price a single
// inference; the pipelined engine (internal/sim/engine.go) additionally
// streams batches through the tile pipeline. ThroughputAt sweeps batch
// sizes for every network×design pair and reports inferences/s — the
// serving-oriented metric the latency figures cannot show.

// ThroughputPoint is one batch size of a sweep.
type ThroughputPoint struct {
	// Batch is the number of inferences in flight.
	Batch int `json:"batch"`
	// PerSec is the achieved throughput Batch/makespan.
	PerSec float64 `json:"inferences_per_sec"`
	// MakespanNs is when the last sample's logits reach the host.
	MakespanNs float64 `json:"makespan_ns"`
}

// ThroughputResult is the batch sweep of one network on one design.
type ThroughputResult struct {
	Network string      `json:"network"`
	Design  arch.Design `json:"design"`
	// LatencyNs is the single-inference critical path (identical to the
	// Fig. 7 series).
	LatencyNs float64 `json:"latency_ns"`
	// SteadyStatePerSec is the pipeline's analytic throughput ceiling;
	// BottleneckName names the saturated resource (stage, mesh link or
	// chip port).
	SteadyStatePerSec float64 `json:"steady_state_per_sec"`
	BottleneckName    string  `json:"bottleneck"`
	// Points holds the sweep, in the requested batch order.
	Points []ThroughputPoint `json:"points"`
}

// ThroughputAt runs the batch sweep for every zoo network on every
// given design (nil means all registered designs). Jobs fan out over
// cfg.Workers like Run; the engine is deterministic, so results are
// bit-identical at any worker count.
func ThroughputAt(cfg Config, designs []arch.Design, batches []int) ([]ThroughputResult, error) {
	if len(designs) == 0 {
		designs = arch.Designs()
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("eval: no batch sizes given")
	}
	for _, b := range batches {
		if b < 1 {
			return nil, fmt.Errorf("eval: batch size %d must be ≥ 1", b)
		}
	}
	for _, d := range designs {
		if _, err := d.Spec(); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, err
	}
	models, err := bnn.Zoo(cfg.Seed)
	if err != nil {
		return nil, err
	}
	nd := len(designs)
	return infer.Map(cfg.Workers, len(models)*nd, func(_, j int) (ThroughputResult, error) {
		m, d := models[j/nd], designs[j%nd]
		out := ThroughputResult{Network: m.Name(), Design: d}
		c, err := compiler.Compile(m, cfg.Arch, d)
		if err != nil {
			return out, fmt.Errorf("eval: %s/%v: %w", m.Name(), d, err)
		}
		eng, err := simulator.NewEngine(c)
		if err != nil {
			return out, fmt.Errorf("eval: %s/%v: %w", m.Name(), d, err)
		}
		// One incremental schedule pass covers the whole sweep
		// (Engine.RunBatches) — compilation and scheduling both happen
		// once per network×design, not once per batch size; results are
		// bit-identical to the per-size path (test-pinned).
		brs, err := eng.RunBatches(batches)
		if err != nil {
			return out, fmt.Errorf("eval: %s/%v: %w", m.Name(), d, err)
		}
		for i, br := range brs {
			out.LatencyNs = br.LatencyNs
			out.SteadyStatePerSec = br.SteadyStatePerSec
			out.BottleneckName = br.BottleneckName
			out.Points = append(out.Points, ThroughputPoint{
				Batch: batches[i], PerSec: br.ThroughputPerSec, MakespanNs: br.MakespanNs,
			})
		}
		return out, nil
	})
}

// ThroughputTables renders a sweep as two tables: text has one row per
// network×design and one column per batch size; csv has one row per
// network×design×batch.
func ThroughputTables(rows []ThroughputResult) (text, csv *report.Table) {
	text = &report.Table{Title: "Pipelined batch throughput (inferences/s)"}
	csv = &report.Table{Cols: []report.Col{{Key: "network"}, {Key: "design"}, {Key: "batch"},
		{Key: "inferences_per_sec"}, {Key: "makespan_ns"}, {Key: "latency_ns"},
		{Key: "steady_state_per_sec"}, {Key: "bottleneck"}}}
	if len(rows) == 0 {
		return text, csv
	}
	text.Cols = []report.Col{{Head: "network"}, {Head: "design"}}
	for _, p := range rows[0].Points {
		text.Cols = append(text.Cols, report.Col{Head: fmt.Sprintf("B=%d", p.Batch), Fmt: "%.0f"})
	}
	text.Cols = append(text.Cols, report.Col{Head: "ceiling", Fmt: "%.0f"}, report.Col{Head: "bottleneck"})
	for _, r := range rows {
		cells := []any{r.Network, r.Design.String()}
		for _, p := range r.Points {
			cells = append(cells, p.PerSec)
			csv.Add(r.Network, r.Design, p.Batch, p.PerSec, p.MakespanNs, r.LatencyNs, r.SteadyStatePerSec, r.BottleneckName)
		}
		text.Add(append(cells, r.SteadyStatePerSec, r.BottleneckName)...)
	}
	return text, csv
}

// Pipeline compiles one model for one design and returns the tile-level
// pipelined pricing engine. This is the online per-batch pricing hook:
// the serving subsystem (internal/serve) calls RunBatch on it for every
// dynamically formed batch, so a live request stream is priced by the
// exact same arithmetic as the offline ThroughputAt sweep.
func Pipeline(cfg Config, model *bnn.Model, d arch.Design) (*sim.Engine, error) {
	if _, err := d.Spec(); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, err
	}
	c, err := compiler.Compile(model, cfg.Arch, d)
	if err != nil {
		return nil, fmt.Errorf("eval: %s/%v: %w", model.Name(), d, err)
	}
	return simulator.NewEngine(c)
}
