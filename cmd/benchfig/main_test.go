package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"einsteinbarrier/internal/sim"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestFig7CSVExport(t *testing.T) {
	out := runOK(t, "-fig", "7", "-csv")
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 { // header + six networks
		t.Fatalf("CSV has %d rows, want 7", len(recs))
	}
	if recs[0][0] != "network" || recs[0][1] != "fig7_tacit_speedup" {
		t.Fatalf("header wrong: %v", recs[0])
	}
	nets := map[string]bool{}
	for _, r := range recs[1:] {
		nets[r[0]] = true
	}
	for _, n := range []string{"CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L"} {
		if !nets[n] {
			t.Fatalf("CSV missing network %s", n)
		}
	}
}

func TestFig7JSONExport(t *testing.T) {
	out := runOK(t, "-fig", "7", "-json")
	var rep struct {
		Summary  map[string]float64 `json:"summary"`
		Networks []map[string]any   `json:"networks"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Networks) != 6 {
		t.Fatalf("JSON has %d networks, want 6", len(rep.Networks))
	}
	if rep.Summary["MeanEBSpeedup"] <= 0 {
		t.Fatalf("summary missing MeanEBSpeedup: %v", rep.Summary)
	}
}

func TestBatchSweepTableAndExports(t *testing.T) {
	table := runOK(t, "-fig", "batch", "-batch", "1,8")
	for _, frag := range []string{"B=1", "B=8", "MLC-ePCM", "EinsteinBarrier-K64", "bottleneck"} {
		if !strings.Contains(table, frag) {
			t.Fatalf("batch table missing %q:\n%s", frag, table)
		}
	}

	out := runOK(t, "-fig", "batch", "-batch", "1,8", "-designs", "eb,eb64", "-csv")
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + 6 networks × 2 designs × 2 batches
	if len(recs) != 1+24 {
		t.Fatalf("batch CSV has %d rows, want 25", len(recs))
	}

	out = runOK(t, "-fig", "batch", "-batch", "4", "-designs", "mlc", "-json")
	var rows []map[string]any
	if err := json.Unmarshal([]byte(out), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 || rows[0]["design"] != "MLC-ePCM" {
		t.Fatalf("batch JSON wrong: %d rows, first design %v", len(rows), rows[0]["design"])
	}
}

func TestUnknownDesignAndFigError(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "batch", "-designs", "warp-drive"}, &out); err == nil {
		t.Fatal("unknown design must error")
	} else if !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("error should name the bad design: %v", err)
	}
	if err := run([]string{"-fig", "nope"}, &out); err == nil {
		t.Fatal("unknown -fig must error")
	}
	if err := run([]string{"-fig", "batch", "-batch", "0,-3"}, &out); err == nil {
		t.Fatal("bad batch list must error")
	}
	// A batch above sim.MaxBatch, in -batch or -search-batch, is an error
	// before any output rather than a calendar sized for it.
	for _, args := range [][]string{
		{"-fig", "batch", "-batch", fmt.Sprint(sim.MaxBatch + 1)},
		{"-fig", "placement", "-batch", "1," + fmt.Sprint(sim.MaxBatch+1)},
		{"-fig", "placement", "-search-batch", fmt.Sprint(sim.MaxBatch + 1)},
	} {
		// A flag that fails its parse (-search-batch) gets the flag
		// package's report of the same error, and nothing else.
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || (buf.Len() != 0 && !strings.HasPrefix(buf.String(), err.Error()+"\n")) {
			t.Fatalf("%v must fail before any output: err %v, wrote %q", args, err, buf.String())
		}
	}
	// A negative -k or -cols-per-adc fails its flag parse rather than
	// falling back to the architecture default: the flag package's
	// report of the error is the only output.
	for _, args := range [][]string{
		{"-fig", "7", "-k", "-3"},
		{"-fig", "7", "-cols-per-adc", "-1"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.HasPrefix(buf.String(), err.Error()+"\n") {
			t.Fatalf("%v must fail its flag parse: err %v, wrote %q", args, err, buf.String())
		}
	}
	if err := run([]string{"-fig", "7", "-csv", "-json"}, &out); err == nil {
		t.Fatal("-csv with -json must error")
	}
	for _, args := range [][]string{
		{"-fig", "wdm", "-csv"}, {"-fig", "steps", "-json"}, {"-fig", "ablate", "-csv"}, {"-fig", "area", "-json"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("%v must error: the figure is text-only", args)
		} else if !strings.Contains(err.Error(), args[1]) {
			t.Fatalf("error should name -fig %s: %v", args[1], err)
		}
	}
}

func TestFigPlacement(t *testing.T) {
	out := runOK(t, "-fig", "placement", "-batch", "16", "-placers", "greedy,mesh")
	for _, frag := range []string{"Placement comparison", "greedy", "mesh", "CNN-L", "linkwait_us"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("placement table missing %q:\n%s", frag, out)
		}
	}
	// CSV export carries one row per network×placer.
	csvOut := runOK(t, "-fig", "placement", "-batch", "8", "-placers", "greedy", "-csv")
	rows, err := csv.NewReader(strings.NewReader(csvOut)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+6 { // header + six networks
		t.Fatalf("placement CSV has %d rows", len(rows))
	}
	if err := run([]string{"-fig", "placement", "-placers", "bogus"}, io.Discard); err == nil {
		t.Fatal("unknown placer must error")
	}
	// Multiple designs are an explicit error, never a silent first-pick.
	if err := run([]string{"-fig", "placement", "-designs", "eb,mlc"}, io.Discard); err == nil {
		t.Fatal("multiple designs must error for -fig placement")
	}
}

func TestFigPlacementSearch(t *testing.T) {
	out := runOK(t, "-fig", "placement", "-batch", "8", "-placers", "mesh,search", "-search-steps", "8")
	for _, frag := range []string{
		"Placement comparison",
		"Search vs best heuristic",
		"best-heur", "gain",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("placement search output missing %q:\n%s", frag, out)
		}
	}
}
