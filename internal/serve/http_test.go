package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/tensor"
)

// httpServer builds a started software server with a fast flush.
func httpServer(t *testing.T) *Server {
	t.Helper()
	model := zooModel(t, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: backend, MaxBatch: 8, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, out
}

func TestHTTPInferHappyPath(t *testing.T) {
	s := httpServer(t)
	h := s.Handler()
	input := make([]float64, 784)
	for i := range input {
		input[i] = float64(i%13)/6.0 - 1
	}
	body, _ := json.Marshal(InferRequest{Input: input})
	rec, out := doJSON(t, h, http.MethodPost, "/infer", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	logits, ok := out["logits"].([]any)
	if !ok || len(logits) == 0 {
		t.Fatalf("no logits in %v", out)
	}
	if _, ok := out["class"].(float64); !ok {
		t.Fatalf("no class in %v", out)
	}
	if bs := out["batch_size"].(float64); bs < 1 {
		t.Fatalf("batch_size %v", bs)
	}
	if lat := out["latency_ms"].(float64); lat <= 0 {
		t.Fatalf("latency_ms %v", lat)
	}
}

func TestHTTPInferErrors(t *testing.T) {
	s := httpServer(t)
	h := s.Handler()
	valid, _ := json.Marshal(InferRequest{Input: make([]float64, 784)})
	for name, tc := range map[string]struct {
		method, path, body string
		want               int
	}{
		"bad json":            {http.MethodPost, "/infer", "{nope", http.StatusBadRequest},
		"unknown field":       {http.MethodPost, "/infer", `{"inputs":[1]}`, http.StatusBadRequest},
		"empty input":         {http.MethodPost, "/infer", `{"input":[]}`, http.StatusBadRequest},
		"wrong size":          {http.MethodPost, "/infer", `{"input":[1,2,3]}`, http.StatusBadRequest},
		"trailing data":       {http.MethodPost, "/infer", string(valid) + " junk", http.StatusBadRequest},
		"trailing value":      {http.MethodPost, "/infer", string(valid) + "{}", http.StatusBadRequest},
		"trailing whitespace": {http.MethodPost, "/infer", string(valid) + " \n\t", http.StatusOK},
		"oversized body":      {http.MethodPost, "/infer", oversizedBody(), http.StatusRequestEntityTooLarge},
		"oversized malformed": {http.MethodPost, "/infer", "{nope" + oversizedBody(), http.StatusRequestEntityTooLarge},
		"wrong method":        {http.MethodGet, "/infer", "", http.StatusMethodNotAllowed},
		"unknown path":        {http.MethodGet, "/nope", "", http.StatusNotFound},
	} {
		rec, _ := doJSON(t, h, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", name, rec.Code, tc.want)
		}
	}
}

// oversizedBody is a well-formed /infer body past MLP-S's limit.
func oversizedBody() string {
	return `{"input":[` + strings.Repeat("0,", int(maxInferBody(784))/2) + `0]}`
}

func TestHTTPStatsAndHealthz(t *testing.T) {
	s := httpServer(t)
	h := s.Handler()
	// Serve one request so the stats are non-trivial.
	input := make([]float64, 784)
	body, _ := json.Marshal(InferRequest{Input: input})
	if rec, out := doJSON(t, h, http.MethodPost, "/infer", string(body)); rec.Code != http.StatusOK {
		t.Fatalf("infer failed: %d %v", rec.Code, out)
	}

	rec, out := doJSON(t, h, http.MethodGet, "/stats", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	if out["completed"].(float64) != 1 || out["accepted"].(float64) != 1 {
		t.Fatalf("stats counters wrong: %v", out)
	}
	if _, ok := out["latency_ms"].(map[string]any); !ok {
		t.Fatalf("stats missing latency block: %v", out)
	}
	if out["backend"] != "software/MLP-S" {
		t.Fatalf("backend %v", out["backend"])
	}

	rec, out = doJSON(t, h, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rec.Code, out)
	}
}

// hangBackend's replicas block on a gate until it is closed — it pins
// the HTTP deadline path without depending on wall-clock slop.
type hangBackend struct {
	model *bnn.Model
	gate  chan struct{}
}

func (b *hangBackend) Name() string      { return "hang" }
func (b *hangBackend) InputShape() []int { return b.model.InputShape }
func (b *hangBackend) NewReplica() (Replica, error) {
	return &hangReplica{gate: b.gate}, nil
}

type hangReplica struct{ gate chan struct{} }

func (r *hangReplica) RunBatch(xs []*tensor.Float, out []Prediction) error {
	<-r.gate
	for i := range out {
		out[i] = Prediction{Class: 0, Logits: []float64{0}}
	}
	return nil
}

// nanBackend's replicas answer every sample with a NaN logit, which no
// JSON reply can carry.
type nanBackend struct{ model *bnn.Model }

func (b *nanBackend) Name() string                 { return "nan" }
func (b *nanBackend) InputShape() []int            { return b.model.InputShape }
func (b *nanBackend) NewReplica() (Replica, error) { return nanReplica{}, nil }

type nanReplica struct{}

func (nanReplica) RunBatch(xs []*tensor.Float, out []Prediction) error {
	for i := range out {
		out[i] = Prediction{Class: 0, Logits: []float64{0.5, math.NaN()}}
	}
	return nil
}

// TestHTTPUnencodableReplyIs500 pins that a reply no JSON can carry is a
// 500 with the error envelope, never a 200 with an empty or invalid
// body: once through the /infer encoder, once through writeJSON.
func TestHTTPUnencodableReplyIs500(t *testing.T) {
	s, err := New(Config{Backend: &nanBackend{model: zooModel(t, "MLP-S")}, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)
	body, _ := json.Marshal(InferRequest{Input: make([]float64, 784)})
	rec, out := doJSON(t, s.Handler(), http.MethodPost, "/infer", string(body))
	if rec.Code != http.StatusInternalServerError || !strings.Contains(fmt.Sprint(out["error"]), "NaN") {
		t.Fatalf("/infer with a NaN logit: %d %q, want 500 with an error envelope", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, InferResponse{Logits: []float64{math.Inf(1)}})
	var env errorBody
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &env) != nil || !strings.Contains(env.Error, "+Inf") {
		t.Fatalf("writeJSON with +Inf: %d %q, want 500 with an error envelope", rec.Code, rec.Body)
	}
}

func TestHTTPInferTimeout(t *testing.T) {
	model := zooModel(t, "MLP-S")
	gate := make(chan struct{})
	s, err := New(Config{Backend: &hangBackend{model: model, gate: gate}, MaxBatch: 1, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Stop)

	input := make([]float64, 784)
	body, _ := json.Marshal(InferRequest{Input: input})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader(string(body))).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(done)
	}()

	// Wait until the request is actually admitted, then hang up the
	// connection while the replica is still stuck on the gate.
	waitFor(t, "request admitted", func() bool { return s.Stats().Accepted == 1 })
	cancel()
	<-done
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504; body %s", rec.Code, rec.Body.String())
	}
	if got := s.Stats().TimedOut; got != 1 {
		t.Fatalf("TimedOut = %d, want 1", got)
	}

	// The batch was already dispatched: releasing the replica completes
	// it server-side even though the connection is gone.
	close(gate)
	waitFor(t, "abandoned request completed", func() bool { return s.Stats().Completed == 1 })
}

// waitFor polls cond with a deadline so a broken invariant fails the
// test instead of hanging it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPServiceUnavailableWhenStopped(t *testing.T) {
	s := httpServer(t)
	h := s.Handler()
	s.Stop()
	body := fmt.Sprintf(`{"input":[%s1]}`, strings.Repeat("1,", 783))
	rec, _ := doJSON(t, h, http.MethodPost, "/infer", body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("infer on stopped server: %d, want 503", rec.Code)
	}
	rec, out := doJSON(t, h, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusServiceUnavailable || out["status"] != "stopped" {
		t.Fatalf("healthz on stopped server: %d %v", rec.Code, out)
	}
}

// FuzzInferHandler feeds arbitrary bodies to POST /infer. The handler
// answers only 200, 400, 413 or 503 — never 500, never a panic — and,
// once the server has stopped, its Completed count equals the number of
// 200 replies.
func FuzzInferHandler(f *testing.F) {
	model := zooModel(f, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		f.Fatal(err)
	}
	valid, _ := json.Marshal(InferRequest{Input: make([]float64, 784)})
	f.Add(valid)
	f.Add(append(valid, " junk"...))
	f.Add([]byte(oversizedBody()))
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{Backend: backend, MaxBatch: 8, MaxWait: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(body)))
		s.Stop()
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		ok := int64(0)
		if rec.Code == http.StatusOK {
			ok = 1
		}
		if got := s.Stats().Completed; got != ok {
			t.Fatalf("Completed = %d after %d 200 replies", got, ok)
		}
	})
}
