package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"einsteinbarrier/internal/tensor"
	"einsteinbarrier/internal/trace"
)

// JSON wire format of the /infer endpoint.

// InferRequest is the POST /infer body: a flat input vector of the
// backend's element count.
type InferRequest struct {
	Input []float64 `json:"input"`
}

// InferResponse is the /infer reply. RequestID is also echoed as the
// X-Request-ID response header (set at admission, before the batch is
// even formed, so timed-out connections still carry it) — the span id
// to look the request up by in a GET /trace export.
type InferResponse struct {
	RequestID int64     `json:"request_id"`
	Class     int       `json:"class"`
	Logits    []float64 `json:"logits"`
	BatchSize int       `json:"batch_size"`
	BatchSeq  int64     `json:"batch_seq"`
	QueueMs   float64   `json:"queue_ms"`
	LatencyMs float64   `json:"latency_ms"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the HTTP front end:
//
//	POST /infer   — run one inference through the dynamic batcher
//	GET  /stats   — metrics snapshot (Snapshot, JSON)
//	GET  /metrics — the same counters in Prometheus text exposition
//	GET  /trace   — Chrome-trace snapshot of the serving span ring
//	                (404 unless Config.Trace is set)
//	GET  /healthz — liveness + backend identity
//
// Overload (a shed request) maps to 503 with Retry-After, malformed
// input (trailing data included) to 400, and an /infer body over
// maxInferBody to 413 — load shedding is part of the API contract, not
// an internal failure.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", s.handleInfer)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON writes v as the JSON reply. v is encoded before the status
// goes out, so a value encoding/json cannot encode (a NaN, say) turns
// into a 500 with the error envelope, never a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

func writeEncodeError(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("encoding the reply: %v", err)})
}

func writeBody(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// maxInferBody is the /infer body limit for a backend of n input
// elements: 4 KiB for the envelope plus 32 bytes per element (the
// shortest float64 text and its comma take at most 25).
func maxInferBody(n int) int64 { return 4096 + 32*int64(n) }

// readInfer reads one whole /infer body into a pooled buffer and
// decodes it. A body over maxInferBody is a 413 before any of it is
// parsed. The buffer is back in the pool when readInfer returns, before
// the handler waits for its batch.
func (s *Server) readInfer(w http.ResponseWriter, r *http.Request) ([]float64, int, error) {
	limit := maxInferBody(s.inputSize)
	buf := getBuf()
	defer bufPool.Put(buf)
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit)
	}
	if err == nil {
		var x []float64
		if x, err = decodeInfer(buf.Bytes(), s.inputSize); err == nil {
			return x, http.StatusOK, nil
		}
	}
	return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	input, status, err := s.readInfer(w, r)
	if err != nil {
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	if len(input) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty input"})
		return
	}
	// Admission errors are this request's own fault (400/503); an error
	// on the reply channel is an execution failure inside the server
	// (500) — the distinction keeps backend faults from being blamed on
	// the client.
	ch, id, err := s.submitTraced(tensor.FromSlice(input, len(input)))
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "0")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case errors.Is(err, ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("X-Request-ID", strconv.FormatInt(id, 10))
	// Honor the request context while waiting for the reply: a stuck or
	// slow replica must not hang the connection past the caller's
	// deadline. The request itself still completes server-side (it is
	// already batched); only this connection gives up.
	var rep Reply
	select {
	case rep = <-ch:
	case <-r.Context().Done():
		s.metrics.timedOut.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: fmt.Sprintf("request timed out: %v", r.Context().Err())})
		return
	}
	if rep.Err != nil {
		status := http.StatusInternalServerError
		if errors.Is(rep.Err, ErrNoHealthyReplica) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorBody{Error: rep.Err.Error()})
		return
	}
	res := rep.Result
	buf := getBuf()
	defer bufPool.Put(buf)
	b, err := appendInferResponse(buf.AvailableBuffer(), &InferResponse{
		RequestID: res.RequestID,
		Class:     res.Class,
		Logits:    res.Logits,
		BatchSize: res.BatchSize,
		BatchSeq:  res.BatchSeq,
		QueueMs:   float64(res.QueueNs) * 1e-6,
		LatencyMs: float64(res.LatencyNs) * 1e-6,
	})
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeBody(w, http.StatusOK, b)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = writeMetrics(w, s.Stats())
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Trace == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing disabled: start the server with a trace recorder (ebserve -trace)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteChrome(w, s.cfg.Trace)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed, started := s.closed, s.started
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	switch {
	case closed:
		status, state = http.StatusServiceUnavailable, "stopped"
	case !started:
		status, state = http.StatusServiceUnavailable, "not started"
	}
	writeJSON(w, status, map[string]any{
		"status":  state,
		"backend": s.cfg.Backend.Name(),
		"workers": len(s.replicas),
	})
}
