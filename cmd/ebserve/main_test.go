package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/trace"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestLoadgenTable(t *testing.T) {
	out := runOK(t, "-loadgen", "-network", "MLP-S", "-rate", "2000,8000",
		"-requests", "40", "-max-wait", "200us")
	for _, frag := range []string{"rate/s", "p99 ms", "sim ceiling", "2000", "8000"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("loadgen table missing %q:\n%s", frag, out)
		}
	}
}

func TestLoadgenCSV(t *testing.T) {
	out := runOK(t, "-loadgen", "-rate", "4000", "-requests", "30", "-csv")
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0][0] != "rate_per_sec" {
		t.Fatalf("CSV shape wrong: %v", recs)
	}
	// With pricing on (the default), the sim columns must be populated.
	idx := -1
	for i, h := range recs[0] {
		if h == "sim_ceiling_per_sec" {
			idx = i
		}
	}
	if idx < 0 || recs[1][idx] == "0" {
		t.Fatalf("sim ceiling missing from CSV row: %v", recs[1])
	}
}

func TestLoadgenClosedLoopJSON(t *testing.T) {
	out := runOK(t, "-loadgen", "-rate", "0", "-requests", "30", "-clients", "3", "-json", "-no-pricing")
	var points []map[string]any
	if err := json.Unmarshal([]byte(out), &points); err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("closed loop should yield one point, got %d", len(points))
	}
	rep := points[0]["report"].(map[string]any)
	if rep["completed"].(float64) != 30 {
		t.Fatalf("closed loop completed %v, want 30", rep["completed"])
	}
}

func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	for name, args := range map[string][]string{
		"unknown network":          {"-network", "MLP-XXL"},
		"unknown design":           {"-design", "warp-drive"},
		"unknown backend":          {"-backend", "quantum", "-loadgen"},
		"bad rate":                 {"-loadgen", "-rate", "fast"},
		"mixed rate 0":             {"-loadgen", "-rate", "0,1000"},
		"unknown flag":             {"-frobnicate"},
		"csv with json (loadgen)":  {"-loadgen", "-rate", "4000", "-requests", "10", "-csv", "-json"},
		"csv with json (maxbatch)": {"-loadgen", "-sweep-maxbatch", "1", "-requests", "10", "-csv", "-json"},
		"csv with json (lifetime)": {"-lifetime", "-requests", "10", "-csv", "-json"},
		"NaN drift horizon":        {"-lifetime", "-drift-horizon", "NaN", "-requests", "24", "-json"},
		"infinite drift horizon":   {"-lifetime", "-drift-horizon", "Inf", "-requests", "24"},
		"NaN lifetimes":            {"-lifetime", "-lifetimes", "NaN", "-requests", "24"},
		"infinite lifetimes":       {"-lifetime", "-lifetimes", "+Inf", "-requests", "24"},
		"NaN rate":                 {"-loadgen", "-rate", "nan", "-requests", "20", "-json"},
		"infinite rate":            {"-loadgen", "-rate", "inf", "-requests", "20", "-json"},
		"NaN accuracy floor":       {"-lifetime", "-accuracy-floor", "nan", "-requests", "24"},
		"accuracy floor above 1":   {"-lifetime", "-accuracy-floor", "1.5", "-requests", "24"},
		"NaN fault rate":           {"-lifetime", "-fault-rate", "nan", "-requests", "24"},
		"NaN drift exponent":       {"-lifetime", "-drift-nu", "nan", "-requests", "24"},
		"NaN diurnal base":         {"-lifetime", "-diurnal-base", "nan", "-requests", "24"},
		"NaN diurnal peak":         {"-lifetime", "-diurnal-base", "100", "-diurnal-peak", "nan", "-requests", "24"},
		"search batch above cap":   {"-loadgen", "-requests", "10", "-search-batch", "100000000"},
		"max batch above cap":      {"-backend", "hardware", "-loadgen", "-requests", "10", "-max-batch", fmt.Sprint(sim.MaxBatch + 1)},
		"sweep cap above cap":      {"-loadgen", "-requests", "10", "-sweep-maxbatch", "4," + fmt.Sprint(sim.MaxBatch+1)},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
	// The design error must name the offender and the registry.
	err := run([]string{"-design", "warp-drive"}, &out)
	if err == nil || !strings.Contains(err.Error(), "warp-drive") {
		t.Fatalf("design error should name the bad design: %v", err)
	}
}

// TestMultiModelRouter builds the co-located router directly (run()
// would block on ListenAndServe) and drives it end to end: routing,
// per-model stats and the shared-fabric snapshot.
func TestMultiModelRouter(t *testing.T) {
	o := options{
		models:   "MLP-S, CNN-M",
		placer:   "mesh",
		design:   "eb",
		backend:  "software",
		maxBatch: 8,
		maxWait:  100 * time.Microsecond,
		workers:  1,
		seed:     1,
	}
	design, err := arch.ParseDesign(o.design)
	if err != nil {
		t.Fatal(err)
	}
	router, fabric, err := buildRouter(o, design)
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	defer router.Stop()
	if len(fabric.Models) != 2 || fabric.Placer != "mesh" {
		t.Fatalf("fabric snapshot %+v", fabric)
	}
	for _, fm := range fabric.Models {
		if fm.Region == "" || fm.CoLocatedPerSec <= 0 || fm.SlowdownX < 1-1e-9 {
			t.Fatalf("fabric model %+v", fm)
		}
	}
	h := router.Handler()
	input := make([]float64, 784)
	body, _ := json.Marshal(map[string]any{"input": input})
	req := httptest.NewRequest("POST", "/infer?model=MLP-S", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("infer status %d: %s", rec.Code, rec.Body.String())
	}
	req = httptest.NewRequest("GET", "/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var stats map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["fabric"]; !ok {
		t.Fatalf("stats missing fabric block: %s", rec.Body.String())
	}
}

// TestMultiModelRouterSearchPlacer: `-placer search` routes through
// eval.CoLocate with "search" — the fabric snapshot reports the searched
// layouts and the endpoints serve as usual.
func TestMultiModelRouterSearchPlacer(t *testing.T) {
	o := options{
		models:      "MLP-S, CNN-S",
		placer:      "search",
		design:      "eb",
		backend:     "software",
		maxBatch:    8,
		maxWait:     100 * time.Microsecond,
		workers:     1,
		seed:        1,
		searchSteps: 8,
		searchSeed:  1,
	}
	design, err := arch.ParseDesign(o.design)
	if err != nil {
		t.Fatal(err)
	}
	router, fabric, err := buildRouter(o, design)
	if err != nil {
		t.Fatal(err)
	}
	router.Start()
	defer router.Stop()
	if len(fabric.Models) != 2 || fabric.Placer != "search" {
		t.Fatalf("fabric snapshot %+v", fabric)
	}
	for _, fm := range fabric.Models {
		if fm.Region == "" || fm.CoLocatedPerSec <= 0 {
			t.Fatalf("fabric model %+v", fm)
		}
	}
	h := router.Handler()
	req := httptest.NewRequest("GET", "/models", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "MLP-S") {
		t.Fatalf("models endpoint: %d %s", rec.Code, rec.Body.String())
	}
}

func TestMultiModelFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-models", "MLP-S", "-loadgen"}, &out); err == nil {
		t.Fatal("-models with -loadgen must error")
	}
	if err := run([]string{"-models", "MLP-S", "-placer", "warp"}, &out); err == nil {
		t.Fatal("unknown placer must error")
	}
	if err := run([]string{"-models", "MLP-S,ghost"}, &out); err == nil {
		t.Fatal("unknown model must error")
	}
}

func TestSweepMaxBatchTable(t *testing.T) {
	out := runOK(t, "-loadgen", "-network", "MLP-S", "-sweep-maxbatch", "1,8",
		"-requests", "48", "-max-wait", "200us", "-no-pricing")
	for _, frag := range []string{"max-batch", "achieved/s", "mean batch"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("sweep table missing %q:\n%s", frag, out)
		}
	}
}

func TestSweepMaxBatchCSV(t *testing.T) {
	out := runOK(t, "-loadgen", "-sweep-maxbatch", "4", "-requests", "24", "-csv", "-no-pricing")
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0][0] != "max_batch" || recs[1][0] != "4" {
		t.Fatalf("CSV shape wrong: %v", recs)
	}
}

func TestSweepMaxBatchFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-loadgen", "-sweep-maxbatch", "0"}, &out); err == nil {
		t.Fatal("accepted -sweep-maxbatch 0")
	}
	if err := run([]string{"-loadgen", "-sweep-maxbatch", "x"}, &out); err == nil {
		t.Fatal("accepted -sweep-maxbatch x")
	}
}

func TestLifetimeTableMode(t *testing.T) {
	out := runOK(t, "-lifetime", "-network", "MLP-S", "-requests", "12",
		"-lifetimes", "3", "-drift-horizon", "80", "-canary-period", "2",
		"-canary-size", "8", "-max-batch", "4", "-no-pricing")
	for _, frag := range []string{"Device lifetime", "MLP-S", "availability", "recalibrations", "canary accuracy"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("lifetime table missing %q:\n%s", frag, out)
		}
	}
}

func TestLifetimeJSONMode(t *testing.T) {
	out := runOK(t, "-lifetime", "-requests", "12", "-lifetimes", "3",
		"-drift-horizon", "80", "-canary-period", "2", "-canary-size", "8",
		"-max-batch", "4", "-json")
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if rep["completed"].(float64) != 12 {
		t.Fatalf("completed %v, want 12", rep["completed"])
	}
	if rep["recalibrations"].(float64) < 1 {
		t.Fatalf("drift never triggered recalibration:\n%s", out)
	}
	if rep["recal_energy_j"].(float64) <= 0 {
		t.Fatalf("recalibration not priced:\n%s", out)
	}
	// Pricing on by default: the EinsteinBarrier sim block must be there.
	stats := rep["stats"].(map[string]any)
	if _, ok := stats["sim"]; !ok {
		t.Fatalf("stats missing sim pricing block:\n%s", out)
	}
}

func TestLifetimeCSVMode(t *testing.T) {
	out := runOK(t, "-lifetime", "-requests", "12", "-lifetimes", "3",
		"-drift-horizon", "80", "-canary-period", "2", "-canary-size", "8",
		"-max-batch", "4", "-csv", "-no-pricing")
	recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// The lifetime CSV is the shared trace schema since PR 9: one
	// counter row per canary point, track = replica, seq = served
	// samples.
	if len(recs) < 2 || recs[0][0] != "kind" || recs[0][5] != "seq" {
		t.Fatalf("lifetime CSV shape wrong: %v", recs)
	}
	if recs[1][0] != "counter" {
		t.Fatalf("first lifetime row not a counter event: %v", recs[1])
	}
}

func TestLifetimeDiurnalMode(t *testing.T) {
	out := runOK(t, "-lifetime", "-requests", "12", "-lifetimes", "3",
		"-drift-horizon", "80", "-canary-period", "1", "-canary-size", "8",
		"-max-batch", "4", "-diurnal-base", "200", "-diurnal-period", "100ms",
		"-json", "-no-pricing")
	var rep map[string]any
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatal(err)
	}
	total := rep["completed"].(float64) + rep["shed"].(float64) + rep["failed"].(float64)
	if total != 12 {
		t.Fatalf("diurnal arrivals not accounted for: %v", rep)
	}
}

func TestLifetimeFlagErrors(t *testing.T) {
	var out bytes.Buffer
	for name, args := range map[string][]string{
		"zero requests": {"-lifetime", "-requests", "0"},
		"zero horizon":  {"-lifetime", "-requests", "10", "-drift-horizon", "0"},
		"bad network":   {"-lifetime", "-network", "MLP-XXL", "-requests", "10"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
}

func TestTraceOutLoadgen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	runOK(t, "-loadgen", "-rate", "0", "-requests", "16", "-clients", "1",
		"-no-pricing", "-trace-out", path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("-trace-out not Chrome-trace JSON: %v", err)
	}
	var spans int
	for _, e := range doc.TraceEvents {
		if e["ph"] == "b" {
			spans++
		}
	}
	if spans != 16 {
		t.Fatalf("%d request spans, want 16", spans)
	}
	if doc.OtherData["time_axis"] != "wall_ns_since_start" {
		t.Fatalf("otherData %v", doc.OtherData)
	}
}

func TestTraceOutLifetime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "life.json")
	runOK(t, "-lifetime", "-requests", "12", "-lifetimes", "3",
		"-drift-horizon", "80", "-canary-period", "2", "-canary-size", "8",
		"-max-batch", "4", "-no-pricing", "-json", "-trace-out", path)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"recalibrate"`) {
		t.Fatalf("lifetime span trace has no recalibration slice:\n%.400s", b)
	}
}

// TestServeModeTraceWired: -trace attaches the span ring, so the
// handler exposes GET /trace (run() would block on ListenAndServe, so
// the server is built directly from the options).
func TestServeModeTraceWired(t *testing.T) {
	o := options{
		network: "MLP-S", design: "eb", backend: "software",
		maxBatch: 8, maxWait: 100 * time.Microsecond, workers: 1, seed: 1,
		noPrice: true, trace: true,
		rec: trace.New(trace.DefaultCapacity),
	}
	design, err := arch.ParseDesign(o.design)
	if err != nil {
		t.Fatal(err)
	}
	model, err := bnn.NewModel(o.network, o.seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o, model, design, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	req := httptest.NewRequest("GET", "/trace", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "traceEvents") {
		t.Fatalf("GET /trace: %d %s", rec.Code, rec.Body.String())
	}
}
