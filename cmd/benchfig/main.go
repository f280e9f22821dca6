// Command benchfig regenerates the paper's evaluation artifacts:
//
//	benchfig -fig 7             # Fig. 7: normalized latency per network
//	benchfig -fig 8             # Fig. 8: normalized energy per network
//	benchfig -fig 7 -summary    # §VI callouts vs the paper's values
//	benchfig -fig batch         # pipelined batch-throughput sweep
//	benchfig -fig batch -batch 1,8,64 -designs EinsteinBarrier,eb64
//	benchfig -fig placement     # placer comparison (BenchmarkPlacement)
//	benchfig -fig placement -placers greedy,mesh -batch 64
//	benchfig -fig wdm           # WDM capacity sweep (E6)
//	benchfig -fig steps         # TacitMap vs CustBinaryMap step sweep (E5)
//
// Designs are resolved by name through the arch design registry
// (arch.ParseDesign). -csv / -json (not both) switch -fig 7, 8, batch
// and placement to machine-readable export; the wdm, steps, ablate and
// area figures are text-only and reject them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: parses args, writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(out)
	fig := fs.String("fig", "7", "artifact to regenerate: 7, 8, batch, placement, wdm, steps, ablate, area")
	summary := fs.Bool("summary", false, "also print the §VI observation summary")
	applyArch := eval.ArchFlags(fs)
	workers := fs.Int("workers", 0, "evaluation worker pool size (0 = one per CPU, 1 = serial)")
	csvOut := fs.Bool("csv", false, "emit the report as CSV instead of tables")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of tables")
	batch := fs.String("batch", "1,2,4,8,16,32", "comma-separated batch sizes for -fig batch (-fig placement uses the maximum)")
	designNames := fs.String("designs", "", "comma-separated design names/aliases (default: every registered design for -fig batch, the paper set otherwise)")
	placerNames := fs.String("placers", "", "comma-separated placers for -fig placement (default: "+strings.Join(compiler.PlacerNames, ",")+")")
	cfg := eval.DefaultConfig()
	eval.SearchFlags(fs, &cfg.Search, "the figure's batch")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := report.ParseMode(*csvOut, *jsonOut)
	if err != nil {
		return err
	}

	cfg.Workers = *workers
	applyArch(&cfg.Arch)
	designs, err := parseDesigns(*designNames)
	if err != nil {
		return err
	}

	switch *fig {
	case "7", "8":
		if len(designs) > 0 {
			cfg.Designs = append(append([]arch.Design{}, arch.CIMDesigns...), extrasOf(designs)...)
		}
		rep, err := eval.Run(cfg)
		if err != nil {
			return err
		}
		switch mode {
		case report.ModeCSV:
			return rep.WriteCSV(out)
		case report.ModeJSON:
			return rep.WriteJSON(out)
		}
		t := rep.Fig7()
		if *fig == "8" {
			t = rep.Fig8()
		}
		if err := t.Text(out); err != nil || !*summary {
			return err
		}
		fmt.Fprintln(out)
		return rep.Observations().Text(out)
	case "batch":
		batches, err := parseBatches(*batch)
		if err != nil {
			return err
		}
		rows, err := eval.ThroughputAt(cfg, designs, batches)
		if err != nil {
			return err
		}
		t, csvTable := eval.ThroughputTables(rows)
		if mode == report.ModeCSV {
			t = csvTable
		}
		return report.Write(out, mode, t, rows)
	case "placement":
		batches, err := parseBatches(*batch)
		if err != nil {
			return err
		}
		maxB := 0
		for _, b := range batches {
			maxB = max(maxB, b)
		}
		d := arch.EinsteinBarrier
		if len(designs) > 1 {
			return fmt.Errorf("-fig placement compares placers on ONE design; got %d in -designs", len(designs))
		}
		if len(designs) == 1 {
			d = designs[0]
		}
		rows, err := eval.ComparePlacements(cfg, nil, splitList(*placerNames), d, maxB)
		if err != nil {
			return err
		}
		if err := report.Write(out, mode, eval.Placements(rows), rows); err != nil || mode != report.ModeText {
			return err
		}
		if wins := eval.PlacementWins(rows); len(wins) > 0 {
			fmt.Fprintln(out)
			return eval.SearchWins(wins).Text(out)
		}
		return nil
	}
	textFig := map[string]func(io.Writer, eval.Config) error{
		"wdm": wdmFig, "steps": stepsFig, "ablate": ablateFig, "area": areaFig,
	}[*fig]
	if textFig == nil {
		return fmt.Errorf("unknown -fig %q", *fig)
	}
	if mode != report.ModeText {
		return fmt.Errorf("-fig %s is text-only; -csv and -json apply to -fig 7, 8, batch and placement", *fig)
	}
	return textFig(out, cfg)
}

// splitList splits a comma-separated list into trimmed names; empty
// means nil (the callee's default set). eval.ComparePlacements
// resolves and validates placer names itself, search included.
func splitList(names string) []string {
	if strings.TrimSpace(names) == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(names, ",") {
		out = append(out, strings.TrimSpace(n))
	}
	return out
}

// parseDesigns resolves a comma-separated design list through the
// registry; unknown names are an error, never a silent default.
func parseDesigns(names string) ([]arch.Design, error) {
	if strings.TrimSpace(names) == "" {
		return nil, nil
	}
	var out []arch.Design
	for _, n := range strings.Split(names, ",") {
		d, err := arch.ParseDesign(n)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// extrasOf filters out the paper designs (already in every report).
func extrasOf(designs []arch.Design) []arch.Design {
	var out []arch.Design
	for _, d := range designs {
		extra := true
		for _, p := range arch.CIMDesigns {
			if d == p {
				extra = false
				break
			}
		}
		if extra {
			out = append(out, d)
		}
	}
	return out
}

func parseBatches(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || b < 1 {
			return nil, fmt.Errorf("bad -batch entry %q (want positive integers)", f)
		}
		out = append(out, b)
	}
	return out, nil
}

// areaFig prints the per-design silicon area of one crossbar unit —
// the paper's §V-A synthesis methodology made explicit.
func areaFig(out io.Writer, cfg eval.Config) error {
	p := energy.DefaultAreaParams()
	a := cfg.Arch
	t := &report.Table{Title: "Per-array silicon area (mm2)", Cols: []report.Col{{Head: "design"},
		{Head: "cells", Fmt: "%.4f"}, {Head: "converters", Fmt: "%.4f"}, {Head: "photonic", Fmt: "%.4f"},
		{Head: "digital", Fmt: "%.4f"}, {Head: "total", Fmt: "%.4f"}}}
	add := func(name string, b energy.AreaBreakdown) {
		t.Add(name, b.Cells/1e6, b.Converters/1e6, b.Photonic/1e6, b.Digital/1e6, b.Total()/1e6)
	}
	add("Baseline-ePCM (2T2R+SA)", p.BaselineArrayArea(a.CrossbarRows, a.CrossbarCols/2))
	add("TacitMap-ePCM (1T1R+ADC)", p.TacitArrayArea(a.CrossbarRows, a.CrossbarCols, a.ColumnsPerADC))
	add("EinsteinBarrier (oPCM)", p.EinsteinBarrierArrayArea(a.CrossbarRows, a.CrossbarCols, a.ColumnsPerADC, a.WDMCapacity, a.VCoresPerECore))
	return t.Text(out)
}

// ablateFig prints the three design-choice sweeps DESIGN.md calls out.
func ablateFig(out io.Writer, cfg eval.Config) error {
	for i, sweep := range []struct {
		title string
		run   func(eval.Config, []int) ([]eval.AblationPoint, error)
		at    []int
	}{
		{"WDM capacity sweep", eval.AblateWDMCapacity, []int{1, 2, 4, 8, 16}},
		{"ADC sharing sweep", eval.AblateColumnsPerADC, []int{1, 4, 8, 16, 32}},
		{"Crossbar size sweep", eval.AblateCrossbarSize, []int{128, 256, 512}},
	} {
		points, err := sweep.run(cfg, sweep.at)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := eval.Ablation(sweep.title, points).Text(out); err != nil {
			return err
		}
	}
	return nil
}

// wdmFig reproduces E6: EinsteinBarrier speedup over TacitMap-ePCM
// as the WDM capacity grows — bounded by K and by the network's
// available parallelism (paper §VI-A observation 3).
func wdmFig(out io.Writer, cfg eval.Config) error {
	t := &report.Table{Title: "E6 — EinsteinBarrier/TacitMap-ePCM latency ratio vs WDM capacity K", Cols: []report.Col{{Head: "K"}}}
	for _, k := range []int{1, 2, 4, 8, 16} {
		c := cfg
		c.Arch.WDMCapacity = k
		rep, err := eval.Run(c)
		if err != nil {
			return err
		}
		cells := []any{k}
		for _, n := range rep.Networks {
			if len(t.Rows) == 0 {
				t.Cols = append(t.Cols, report.Col{Head: n.Network, Fmt: "%.1fx"})
			}
			cells = append(cells, n.LatTacit/n.LatEB)
		}
		t.Add(cells...)
	}
	return t.Text(out)
}

// stepsFig reproduces E5: the §III theoretical claim that TacitMap
// needs n× fewer crossbar steps than CustBinaryMap on the same device
// (the default 256x256 array, whatever the -k or -cols-per-adc flags).
func stepsFig(out io.Writer, _ eval.Config) error {
	t := &report.Table{Title: "E5 — serial crossbar steps per input vector (single 256x256 array)",
		Cols: []report.Col{{Head: "layer (n x m)"}, {Head: "CustBinaryMap"}, {Head: "TacitMap"}, {Head: "ratio", Fmt: "%.0fx"}}}
	cfg := arch.DefaultConfig()
	for _, dims := range [][2]int{{16, 128}, {64, 128}, {128, 128}, {256, 128}, {256, 256}, {512, 512}} {
		n, m := dims[0], dims[1]
		tp, err := core.PlanTacit(n, m, cfg.CrossbarRows, cfg.CrossbarCols)
		if err != nil {
			return err
		}
		cp, err := core.PlanCust(n, m, cfg.CrossbarRows, cfg.CrossbarCols/2)
		if err != nil {
			return err
		}
		cs, ts := cp.SingleArrayStepsPerInput(), tp.SingleArrayStepsPerInput()
		t.Add(fmt.Sprintf("%d x %d", n, m), cs, ts, float64(cs)/float64(ts))
	}
	return t.Text(out)
}
