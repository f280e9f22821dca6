package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/trace"
)

// containsLine reports whether text has a line starting with want.
func containsLine(text, want string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, want) {
			return true
		}
	}
	return false
}

// pipelineEngine builds a sim engine without eval (which imports serve
// — an in-package test would cycle).
func pipelineEngine(t *testing.T, network string, d arch.Design) *sim.Engine {
	t.Helper()
	cfg := arch.DefaultConfig()
	simulator, err := sim.New(cfg, energy.DefaultCostParams())
	if err != nil {
		t.Fatal(err)
	}
	c, err := compiler.Compile(zooModel(t, network), cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := simulator.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// tracedServer builds a started software server with a span recorder
// and a sim pricer attached.
func tracedServer(t *testing.T, rec *trace.Recorder) *Server {
	t.Helper()
	model := zooModel(t, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	pricer, err := NewPricer(pipelineEngine(t, "MLP-S", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Backend: backend, MaxBatch: 4, MaxWait: 100 * time.Microsecond,
		Pricer: pricer, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

// TestServeTraceSpans pins the span scheme: one async span per request
// with its admission-assigned id, batch slices whose sizes sum to the
// served total, and one pricer join per executed batch.
func TestServeTraceSpans(t *testing.T) {
	rec := trace.New(1024)
	s := tracedServer(t, rec)
	const n = 10
	for _, x := range testInputs(t, zooModel(t, "MLP-S"), n, 1) {
		res, err := s.submit(x)
		if err != nil {
			t.Fatal(err)
		}
		if res.RequestID <= 0 {
			t.Fatalf("request id %d not assigned", res.RequestID)
		}
	}
	s.Stop()

	procs := rec.Processes()
	if len(procs) != 1 || procs[0].Name != "serve "+s.cfg.Backend.Name() {
		t.Fatalf("processes %+v", procs)
	}
	var spans, sliceN, prices int
	ids := map[int64]bool{}
	batchSeqs := map[int64]bool{}
	priceSeqs := map[int64]bool{}
	for _, e := range rec.Events() {
		switch {
		case e.Kind == trace.KindAsync && rec.Name(e.Name) == "request":
			spans++
			if ids[e.Seq] {
				t.Fatalf("duplicate request id %d", e.Seq)
			}
			ids[e.Seq] = true
			if e.Dur <= 0 || e.A < 0 {
				t.Fatalf("span %+v", e)
			}
		case e.Kind == trace.KindSlice && rec.Name(e.Name) == "batch":
			sliceN += int(e.A)
			batchSeqs[e.Seq] = true
		case e.Kind == trace.KindInstant && rec.Name(e.Name) == "sim-price":
			prices++
			priceSeqs[e.Seq] = true
			if e.A <= 0 {
				t.Fatalf("priced makespan %+v", e)
			}
		}
	}
	if spans != n || sliceN != n {
		t.Fatalf("spans %d, batch-slice samples %d, want %d each", spans, sliceN, n)
	}
	if prices != len(batchSeqs) {
		t.Fatalf("%d pricer joins for %d batches", prices, len(batchSeqs))
	}
	for seq := range priceSeqs {
		if !batchSeqs[seq] {
			t.Fatalf("pricer seq %d has no batch slice", seq)
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("dropped %d events", rec.Dropped())
	}
}

// TestHTTPTraceMetricsRequestID drives the three new HTTP surfaces:
// X-Request-ID on /infer, the Chrome-trace snapshot on /trace, and the
// Prometheus text exposition on /metrics.
func TestHTTPTraceMetricsRequestID(t *testing.T) {
	rec := trace.New(1024)
	s := tracedServer(t, rec)
	h := s.Handler()

	input := make([]float64, 784)
	for i := range input {
		input[i] = float64(i%13)/6.0 - 1
	}
	body, _ := json.Marshal(InferRequest{Input: input})
	r, out := doJSON(t, h, http.MethodPost, "/infer", string(body))
	if r.Code != http.StatusOK {
		t.Fatalf("status %d: %v", r.Code, out)
	}
	hdr := r.Header().Get("X-Request-ID")
	if hdr == "" {
		t.Fatal("no X-Request-ID header")
	}
	if want := strconv.FormatFloat(out["request_id"].(float64), 'f', -1, 64); hdr != want {
		t.Fatalf("X-Request-ID %q, body request_id %v", hdr, out["request_id"])
	}

	req, errBody := doJSON(t, h, http.MethodGet, "/trace", "")
	if req.Code != http.StatusOK {
		t.Fatalf("GET /trace: %d %v", req.Code, errBody)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(req.Body.Bytes(), &tr); err != nil {
		t.Fatalf("GET /trace not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("empty trace snapshot after a served request")
	}
	if tr.OtherData["time_axis"] != "wall_ns_since_start" {
		t.Fatalf("otherData %v", tr.OtherData)
	}

	rm, _ := doJSON(t, h, http.MethodGet, "/metrics", "")
	if rm.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", rm.Code)
	}
	if ct := rm.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("content type %q", ct)
	}
	text := rm.Body.String()
	for _, want := range []string{
		"# TYPE eb_serve_accepted_total counter",
		"eb_serve_accepted_total 1",
		"eb_serve_completed_total 1",
		"eb_serve_fallback_served_total 0",
		`eb_serve_latency_seconds{quantile="0.99"}`,
		"# TYPE eb_serve_queue_depth gauge",
		"eb_serve_sim_ceiling_per_sec",
	} {
		if !containsLine(text, want) {
			t.Errorf("GET /metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestHTTPTraceDisabled404 pins the no-recorder contract.
func TestHTTPTraceDisabled404(t *testing.T) {
	s := httpServer(t) // no Config.Trace
	r, out := doJSON(t, s.Handler(), http.MethodGet, "/trace", "")
	if r.Code != http.StatusNotFound {
		t.Fatalf("GET /trace without a recorder: %d %v", r.Code, out)
	}
	if out["error"] == "" {
		t.Fatalf("no error body: %v", out)
	}
}

// TestRouterMetricsLabelsModels pins the fleet exposition: one model
// label per server, grouped per metric family, deterministic order.
func TestRouterMetricsLabelsModels(t *testing.T) {
	mkServer := func(network string) *Server {
		backend, err := NewSoftwareBackend(zooModel(t, network), 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Backend: backend, MaxBatch: 4, MaxWait: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	rt, err := NewRouter([]RouterEntry{
		{Name: "MLP-S", Server: mkServer("MLP-S")},
		{Name: "MLP-M", Server: mkServer("MLP-M")},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)

	r, _ := doJSON(t, rt.Handler(), http.MethodGet, "/metrics", "")
	if r.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", r.Code)
	}
	text := r.Body.String()
	for _, want := range []string{
		`eb_serve_accepted_total{model="MLP-M"} 0`,
		`eb_serve_accepted_total{model="MLP-S"} 0`,
		`eb_serve_latency_seconds{model="MLP-M",quantile="0.5"}`,
	} {
		if !containsLine(text, want) {
			t.Errorf("router /metrics missing %q in:\n%s", want, text)
		}
	}
	// Families must not repeat: each # TYPE line appears exactly once.
	if n := strings.Count(text, "# TYPE eb_serve_accepted_total counter"); n != 1 {
		t.Fatalf("family header repeated %d times", n)
	}

	// /trace routes through the model picker: no recorder → 404, unknown
	// model → 404 with the model list.
	if r, _ := doJSON(t, rt.Handler(), http.MethodGet, "/trace?model=MLP-S", ""); r.Code != http.StatusNotFound {
		t.Fatalf("traceless model /trace: %d", r.Code)
	}
	if r, out := doJSON(t, rt.Handler(), http.MethodGet, "/trace?model=nope", ""); r.Code != http.StatusNotFound || out["error"] == "" {
		t.Fatalf("unknown model /trace: %d %v", r.Code, out)
	}
}
