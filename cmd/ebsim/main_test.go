package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/eval"
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

func TestDrillDownSmoke(t *testing.T) {
	out := runOK(t, "-model", "MLP-S", "-design", "tacit", "-batch", "8")
	for _, frag := range []string{
		"MLP-S on TacitMap-ePCM",
		"latency:",
		"energy breakdown (uJ):",
		"per-layer latency:",
		"pipeline (batch 8):",
		"stage occupancy:",
		"silicon area:",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("drill-down missing %q:\n%s", frag, out)
		}
	}
}

func TestRegistryDesignsDrillDown(t *testing.T) {
	out := runOK(t, "-model", "MLP-S", "-design", "mlc")
	if !strings.Contains(out, "MLC-ePCM") || !strings.Contains(out, "4-level cells") {
		t.Fatalf("MLC drill-down missing registry annotations:\n%s", out)
	}
	out = runOK(t, "-model", "CNN-S", "-design", "eb64", "-batch", "16")
	if !strings.Contains(out, "EinsteinBarrier-K64") || !strings.Contains(out, "inf/s ceiling") {
		t.Fatalf("wide-K drill-down wrong:\n%s", out)
	}
}

func TestGPUPath(t *testing.T) {
	out := runOK(t, "-model", "MLP-S", "-design", "gpu")
	if !strings.Contains(out, "Baseline-GPU") || !strings.Contains(out, "latency:") {
		t.Fatalf("gpu drill-down wrong:\n%s", out)
	}
}

func TestProgramDumpSectioned(t *testing.T) {
	out := runOK(t, "-model", "MLP-S", "-design", "eb", "-program")
	if !strings.Contains(out, "; --- fc1-bin ---") {
		t.Fatalf("program dump not sectioned:\n%s", out)
	}
	if !strings.Contains(out, "MMM") || !strings.Contains(out, "HALT") {
		t.Fatalf("program dump missing instructions:\n%s", out)
	}
}

func TestUnknownDesignErrors(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-design", "hal9000"}, &out)
	if err == nil {
		t.Fatal("unknown design must error, not default")
	}
	if !strings.Contains(err.Error(), "hal9000") || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("error should name the design and list the registry: %v", err)
	}
}

func TestPlacerDrillDown(t *testing.T) {
	out := runOK(t, "-model", "CNN-L", "-design", "eb", "-placer", "mesh", "-batch", "8")
	if !strings.Contains(out, "placement:            mesh,") {
		t.Fatalf("mesh placement line missing:\n%s", out)
	}
	if !strings.Contains(out, "pipeline (batch 8):") {
		t.Fatalf("pipeline drill-down missing:\n%s", out)
	}
	if err := run([]string{"-placer", "warp"}, io.Discard); err == nil {
		t.Fatal("unknown placer must error")
	}
	for _, args := range [][]string{
		{"-batch", "0"},
		{"-model", "MLP-S", "-batch", fmt.Sprint(sim.MaxBatch + 1)},
		{"-model", "MLP-S", "-placer", "search", "-search-batch", fmt.Sprint(sim.MaxBatch + 1)},
		{"-models", "MLP-S,CNN-S", "-batch", "100000000"},
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
		{"-model", "CNN-S", "-design", "eb", "-k", "-3"},
		{"-model", "CNN-S", "-design", "eb", "-cols-per-adc", "-1"},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.HasPrefix(buf.String(), err.Error()+"\n") {
			t.Fatalf("%v must fail its flag parse: err %v, wrote %q", args, err, buf.String())
		}
	}
}

// TestOneAnswerPerModelDesign: one model × design × placer gets one
// price whichever command asks — ebsim's drill-down reports the same
// SEND hops, chip hops, fill latency and pipelined throughput as the
// eval.ComparePlacements row benchfig -fig placement prints.
func TestOneAnswerPerModelDesign(t *testing.T) {
	placers := []string{"greedy", "mesh", "shard"}
	rows, err := eval.ComparePlacements(eval.DefaultConfig(), []string{"CNN-L"}, placers, arch.EinsteinBarrier, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range placers {
		out := runOK(t, "-model", "CNN-L", "-design", "eb", "-placer", p, "-batch", "64")
		r := rows[i]
		for _, want := range []string{
			fmt.Sprintf("placement:            %s, ", r.Placer),
			fmt.Sprintf(", %d total hops, %d chip hops\n", r.TotalHops, r.ChipHops),
			fmt.Sprintf("  latency:              %.2f us\n", r.LatencyNs/1e3),
			fmt.Sprintf("pipeline (batch 64):  %.0f inf/s achieved,", r.ThroughputPerSec),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: ebsim drill-down lacks the ComparePlacements figure %q:\n%s", p, want, out)
			}
		}
	}
}

func TestCoLocationDrillDown(t *testing.T) {
	out := runOK(t, "-models", "MLP-S,CNN-S", "-placer", "mesh", "-batch", "16")
	for _, frag := range []string{
		"co-location of 2 models",
		"MLP-S", "CNN-S",
		"iso inf/s", "slowdown",
		"fairness",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("co-location drill-down missing %q:\n%s", frag, out)
		}
	}
	if err := run([]string{"-models", "MLP-S,ghost"}, io.Discard); err == nil {
		t.Fatal("unknown co-located model must error")
	}
}

func TestSearchPlacerDrillDown(t *testing.T) {
	out := runOK(t, "-model", "MLP-S", "-placer", "search", "-batch", "8", "-search-steps", "8")
	for _, frag := range []string{
		"placement:",
		"search:",
		"best from",
		"objective",
		"search eval:",
		"candidates/s",
		"engine reuse",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("search drill-down missing %q:\n%s", frag, out)
		}
	}
}

func TestSearchCoLocationDrillDown(t *testing.T) {
	out := runOK(t, "-models", "MLP-S,CNN-S", "-placer", "search", "-batch", "8", "-search-steps", "8")
	for _, frag := range []string{
		"co-location of 2 models",
		"placer search",
		"set objective",
		"fairness",
		"cache hit",
		"engine reuse",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("search co-location missing %q:\n%s", frag, out)
		}
	}
}

// readTraceJSON parses a written Chrome-trace file.
func readTraceJSON(t *testing.T, path string) (events []map[string]any, other map[string]any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s not Chrome-trace JSON: %v", path, err)
	}
	return doc.TraceEvents, doc.OtherData
}

func TestTraceFlagWritesChromeAndCSV(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	csvPath := filepath.Join(dir, "t.csv")
	runOK(t, "-model", "MLP-S", "-design", "eb", "-batch", "4",
		"-trace", jsonPath, "-trace-csv", csvPath)
	events, other := readTraceJSON(t, jsonPath)
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	if other["batch"] != "4" || other["model"] != "MLP-S" {
		t.Fatalf("otherData %v", other)
	}
	b, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if lines[0] != "kind,pid,tid,track,name,seq,start_ns,dur_ns,a,b" || len(lines) < 2 {
		t.Fatalf("trace CSV shape wrong:\n%s", lines[0])
	}
}

func TestTraceFlagCoLocation(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "co.json")
	runOK(t, "-models", "MLP-S,MLP-M", "-placer", "mesh", "-batch", "4", "-trace", jsonPath)
	events, _ := readTraceJSON(t, jsonPath)
	pids := map[any]bool{}
	for _, e := range events {
		pids[e["pid"]] = true
	}
	// One process per co-located model.
	if len(pids) != 2 {
		t.Fatalf("co-location trace has %d processes, want 2", len(pids))
	}
}

func TestTraceCandidateDump(t *testing.T) {
	candPath := filepath.Join(t.TempDir(), "cand.json")
	runOK(t, "-model", "MLP-S", "-placer", "search", "-batch", "8",
		"-search-steps", "8", "-trace-candidate", candPath)
	events, other := readTraceJSON(t, candPath)
	var counters int
	for _, e := range events {
		if e["ph"] == "C" {
			counters++
		}
	}
	if counters == 0 {
		t.Fatalf("no objective counters in candidate dump: %v", events)
	}
	if other["best_from"] == "" || other["steps"] == "" {
		t.Fatalf("candidate dump missing search metadata: %v", other)
	}
	if err := run([]string{"-model", "MLP-S", "-trace-candidate", candPath}, io.Discard); err == nil {
		t.Fatal("-trace-candidate without -placer search must error")
	}
}
