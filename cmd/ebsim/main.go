// Command ebsim compiles and simulates one BNN from the model zoo on a
// chosen accelerator design, printing the compiled program statistics,
// per-layer latencies, the energy breakdown, and the pipelined batch
// drill-down. Designs are resolved by registry name or alias
// (arch.ParseDesign); "gpu" selects the analytic GPU baseline.
//
//	ebsim -model CNN-L -design eb
//	ebsim -model MLP-S -design baseline -program   # dump the ISA stream
//	ebsim -model CNN-M -design tacit -k 8 -cols-per-adc 16
//	ebsim -model CNN-S -design eb64 -batch 64      # wide-K batch drill-down
//	ebsim -model CNN-L -placer mesh -batch 64      # locality-aware placement
//	ebsim -model MLP-L -placer search -batch 256   # annealed, engine-priced layout
//	ebsim -models MLP-S,CNN-S -placer mesh         # co-locate on one fabric
//	ebsim -models MLP-S,CNN-S -placer search       # interference-aware co-location
//	ebsim -model CNN-L -batch 256 -trace t.json    # Chrome-trace of the pipeline
//	ebsim -placer search -trace-candidate c.json   # search-trajectory dump
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/gpu"
	"einsteinbarrier/internal/isa"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ebsim:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: parses args, writes the drill-down to
// out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ebsim", flag.ContinueOnError)
	fs.SetOutput(out)
	model := fs.String("model", "CNN-S", "zoo model: "+strings.Join(bnn.ZooNames, ", "))
	models := fs.String("models", "", "comma-separated zoo models to CO-LOCATE on one fabric (overrides -model)")
	design := fs.String("design", "eb", "registered design name or alias, or gpu")
	placerName := fs.String("placer", "greedy", "placement strategy: "+strings.Join(compiler.PlacerNames, ", "))
	applyArch := eval.ArchFlags(fs)
	dumpProgram := fs.Bool("program", false, "print the compiled ISA stream")
	batch := fs.Int("batch", 32, "batch size for the pipeline drill-down")
	evalCfg := eval.DefaultConfig()
	eval.SearchFlags(fs, &evalCfg.Search, "-batch")
	traceOut := fs.String("trace", "", "write the pipeline drill-down as Chrome-trace JSON (chrome://tracing / Perfetto) to this file")
	traceCSV := fs.String("trace-csv", "", "write the same trace as flat CSV to this file")
	traceCand := fs.String("trace-candidate", "", "with -placer search: write the search-candidate trajectory as Chrome-trace JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceCand != "" && *placerName != "search" {
		return fmt.Errorf("-trace-candidate needs -placer search")
	}

	applyArch(&evalCfg.Arch)
	cfg := evalCfg.Arch
	var candRec *trace.Recorder
	if *traceCand != "" {
		// Warm starts, candidates, accept/improve markers: ≤3 events per
		// objective evaluation.
		candRec = trace.New(3*evalCfg.Search.Steps + 64)
	}
	evalCfg.Search.Trace = candRec

	if *models != "" {
		if err := runCoLocation(out, strings.Split(*models, ","), *design, *placerName, evalCfg, *batch, *traceOut, *traceCSV); err != nil {
			return err
		}
		return trace.WriteFiles(candRec, *traceCand, "")
	}

	m, err := bnn.Arch(*model)
	if err != nil {
		return err
	}

	if *design == "gpu" {
		g := gpu.DefaultModel()
		fmt.Fprintf(out, "%s on Baseline-GPU\n", m.Name())
		fmt.Fprintf(out, "  latency: %.2f us\n", g.InferenceLatencyNs(m)/1e3)
		fmt.Fprintf(out, "  energy:  %.2f uJ\n", g.InferenceEnergyPJ(m)/1e6)
		return nil
	}

	d, err := arch.ParseDesign(*design)
	if err != nil {
		return err
	}
	spec, err := d.Spec()
	if err != nil {
		return err
	}

	searchStart := time.Now()
	c, ms, err := eval.Place(evalCfg, m, d, *placerName, *batch)
	searchDur := time.Since(searchStart)
	if err != nil {
		return err
	}
	if *dumpProgram {
		for _, sec := range c.Program.Sections() {
			if sec.Name != "" {
				fmt.Fprintf(out, "; --- %s ---\n", sec.Name)
			}
			fmt.Fprint(out, sec.Ins.String())
		}
		return nil
	}
	s, err := sim.New(cfg, evalCfg.Costs)
	if err != nil {
		return err
	}
	eng, err := s.NewEngine(c)
	if err != nil {
		return err
	}
	var rec *trace.Recorder
	if *traceOut != "" || *traceCSV != "" {
		// Size the ring so the full batch timeline fits — nothing drops.
		rec = trace.New(*batch*eng.TraceEventsPerSample() + 16)
		eng.EnableTrace(rec)
	}
	r := eng.Result()

	fmt.Fprintf(out, "%s on %v (%v on %v%s)\n", m.Name(), d, spec.Mapping, spec.Tech,
		mlcSuffix(spec))
	fmt.Fprintf(out, "  binary ops/inference: %d\n", m.TotalBinaryOps())
	fmt.Fprintf(out, "  fp MACs/inference:    %d\n", m.TotalFPMACs())
	fmt.Fprintf(out, "  VCores used:          %d / %d\n", c.VCoresUsed, cfg.TotalVCores())
	hops, chipHops := sendHops(c)
	fmt.Fprintf(out, "  placement:            %s, %d layer spans over %d tiles, %d total hops, %d chip hops\n",
		c.Placement.Placer, len(c.Placement.Layers), c.Placement.TotalTiles(spec.EffectiveArch(cfg)), hops, chipHops)
	if ms != nil {
		st, ec := ms.Stats, ms.Eval
		improved := "matched the best heuristic"
		if st.Improved {
			improved = "beat the heuristics"
		}
		fmt.Fprintf(out, "  search:               %d evals over %d rounds, %d accepted; best from %s (%s), objective %.0f inf/s\n",
			st.Steps, st.Rounds, st.Accepted, st.BestFrom, improved, st.BestScore)
		rate := 0.0
		if searchDur > 0 {
			rate = float64(st.Steps) / searchDur.Seconds()
		}
		fmt.Fprintf(out, "  search eval:          %.0f candidates/s, cache hit %.1f%%, engine reuse %.1f%% (%d engine runs)\n",
			rate, 100*ec.HitRate(), 100*ec.PoolReuseRate(), ec.Computes)
	}
	if lc, err := sim.WeightLoadCost(c, cfg); err == nil {
		fmt.Fprintf(out, "  weight load (once):   %.2f us, %.2f uJ for %d writes\n",
			lc.LatencyNs/1e3, lc.EnergyPJ/1e6, lc.Writes)
	}
	fmt.Fprintf(out, "  instructions:         %d\n", r.Counters.Instructions)
	fmt.Fprintf(out, "  latency:              %.2f us\n", r.LatencyNs/1e3)
	fmt.Fprintf(out, "  energy:               %.2f uJ\n", r.EnergyPJ()/1e6)
	fmt.Fprintln(out, "  per-layer latency:")
	for _, lt := range r.PerLayer {
		fmt.Fprintf(out, "    %-14s %12.2f us\n", lt.Name, lt.LatencyNs/1e3)
	}
	e := r.Energy
	fmt.Fprintln(out, "  energy breakdown (uJ):")
	for _, row := range []struct {
		name string
		v    float64
	}{
		{"crossbar", e.CrossbarPJ}, {"adc", e.ADCPJ}, {"dac", e.DACPJ},
		{"sense", e.SensePJ}, {"digital", e.DigitalPJ},
		{"control+noc", e.ControlPJ}, {"optical static", e.StaticPJ},
	} {
		fmt.Fprintf(out, "    %-14s %12.3f\n", row.name, row.v/1e6)
	}

	br, err := eng.RunBatch(*batch)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  pipeline (batch %d):  %.0f inf/s achieved, %.0f inf/s ceiling (bottleneck %s)\n",
		br.Batch, br.ThroughputPerSec, br.SteadyStatePerSec, br.BottleneckName)
	fmt.Fprintf(out, "    noc contention stall: %.2f us over the batch\n", br.LinkWaitNs/1e3)
	fmt.Fprintln(out, "    stage occupancy:")
	for _, st := range br.Stages {
		fmt.Fprintf(out, "      %-14s %5.1f%% busy, %4d tiles, %10.2f us/sample\n",
			st.Name, 100*st.Busy, st.Tiles, st.ServiceNs/1e3)
	}

	area := energy.DefaultAreaParams()
	var perArray energy.AreaBreakdown
	switch {
	case spec.Mapping == arch.MappingCust:
		perArray = area.BaselineArrayArea(cfg.CrossbarRows, cfg.CrossbarCols/2)
	case spec.Tech == device.OPCM:
		perArray = area.EinsteinBarrierArrayArea(cfg.CrossbarRows, cfg.CrossbarCols,
			cfg.ColumnsPerADC, cfg.EffectiveK(d), cfg.VCoresPerECore)
	default:
		perArray = area.TacitArrayArea(cfg.CrossbarRows, cfg.CrossbarCols, cfg.ColumnsPerADC)
	}
	fmt.Fprintf(out, "  silicon area:         %.3f mm2/array, %.1f mm2 for the %d arrays used\n",
		perArray.Total()/1e6, perArray.Total()*float64(c.VCoresUsed)/1e6, c.VCoresUsed)
	if err := trace.WriteFiles(rec, *traceOut, *traceCSV); err != nil {
		return err
	}
	return trace.WriteFiles(candRec, *traceCand, "")
}

// enableSetTrace attaches a full-batch recorder to a co-located engine
// set when either trace output was requested.
func enableSetTrace(es *sim.EngineSet, batch int, traceJSON, traceCSV string) *trace.Recorder {
	if traceJSON == "" && traceCSV == "" {
		return nil
	}
	rec := trace.New(batch*es.TraceEventsPerSample() + 64)
	es.EnableTrace(rec)
	return rec
}

// mlcSuffix annotates multi-level-cell designs with their level count
// and the analytic decode error the level choice costs (device/mlc.go).
func mlcSuffix(spec arch.DesignSpec) string {
	if spec.MLC == nil {
		return ""
	}
	return fmt.Sprintf(", %d-level cells, decode err %.2g",
		spec.MLC.Levels, spec.MLC.AnalyticErrorRate())
}

// sendHops sums the program's SEND routing operands.
func sendHops(c *compiler.Compiled) (hops, chipHops int) {
	for _, in := range c.Program {
		if in.Op == isa.OpSend {
			hops += in.Hops
			chipHops += in.ChipHops
		}
	}
	return hops, chipHops
}

// runCoLocation compiles several models onto one shared fabric with
// disjoint regions through eval.CoLocate — "search" anneals each
// model's region against the WHOLE set's Jain-penalized aggregate
// throughput — and prints the co-location drill-down: per-model
// regions, isolated vs co-located throughput, the fabric's
// fairness/interference report, and one line per searched model.
func runCoLocation(out io.Writer, names []string, designName, placer string, cfg eval.Config, batch int, traceJSON, traceCSV string) error {
	d, err := arch.ParseDesign(designName)
	if err != nil {
		return err
	}
	spec, err := d.Spec()
	if err != nil {
		return err
	}
	ecfg := spec.EffectiveArch(cfg.Arch)
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	cs, es, msearch, err := eval.CoLocate(cfg, names, d, placer, batch)
	if err != nil {
		return err
	}
	rec := enableSetTrace(es, batch, traceJSON, traceCSV)
	r, err := es.RunSet(batch)
	if err != nil {
		return err
	}
	if err := trace.WriteFiles(rec, traceJSON, traceCSV); err != nil {
		return err
	}
	t := &report.Table{
		Title: fmt.Sprintf("co-location of %d models on %v (placer %s, batch %d)", len(cs), d, cs[0].Placement.Placer, batch),
		Cols: []report.Col{{Head: "model"}, {Head: "region"}, {Head: "tiles"}, {Head: "iso inf/s", Fmt: "%.0f"},
			{Head: "co inf/s", Fmt: "%.0f"}, {Head: "slowdown", Fmt: "%.4fx"}, {Head: "link wait us", Fmt: "%.2f"}},
		Footer: []string{fmt.Sprintf("fabric: %.0f inf/s aggregate, fairness %.4f (Jain), interference wait %.2f us, makespan %.2f us",
			r.AggregatePerSec, r.FairnessJain, r.InterferenceWaitNs/1e3, r.MakespanNs/1e3)},
	}
	for i, mr := range r.Models {
		t.Add(mr.ModelName, mr.Region.String(), cs[i].Placement.TotalTiles(ecfg),
			mr.IsolatedPerSec, mr.ThroughputPerSec, mr.SlowdownX, mr.LinkWaitNs/1e3)
	}
	for _, ms := range msearch {
		st := ms.Stats
		t.Footer = append(t.Footer, fmt.Sprintf("search %-8s %d evals, %d accepted, best from %s, set objective %.0f (cache hit %.1f%%, engine reuse %.1f%%)",
			ms.Model, st.Steps, st.Accepted, st.BestFrom, st.BestScore,
			100*ms.Eval.HitRate(), 100*ms.Eval.PoolReuseRate()))
	}
	return t.Text(out)
}
