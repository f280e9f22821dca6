package serve

import (
	"fmt"
	"net/http"
	"sort"

	"einsteinbarrier/internal/sim"
)

// Multi-model serving. A Router fronts several models that share ONE
// accelerator fabric: the compiler co-located them into disjoint tile
// regions (compiler.CompileSet) and the shared-fabric pipeline engine
// (sim.EngineSet) quantified what the co-location costs each of them.
// Requests pick their model with ?model=... and flow through that
// model's dynamic batcher; /stats reports every model's serving metrics
// next to the fabric-level co-location snapshot, so operators see
// per-tenant throughput AND the interference behind it in one place.

// RouterEntry names one served model.
type RouterEntry struct {
	Name   string
	Server *Server
}

// FabricModel is one co-located model's fabric-level accounting.
type FabricModel struct {
	Name   string `json:"name"`
	Region string `json:"region"`
	// LatencyNs is the single-inference critical path on the fabric.
	LatencyNs float64 `json:"latency_ns"`
	// CoLocatedPerSec / IsolatedPerSec are the pipelined throughput with
	// and without the neighbours; SlowdownX their ratio.
	CoLocatedPerSec float64 `json:"colocated_per_sec"`
	IsolatedPerSec  float64 `json:"isolated_per_sec"`
	SlowdownX       float64 `json:"slowdown_x"`
	// LinkWaitNs is the model's NoC stall under co-location.
	LinkWaitNs float64 `json:"link_wait_ns"`
}

// FabricSnapshot is the shared-fabric co-location report served under
// /stats.
type FabricSnapshot struct {
	Design string `json:"design"`
	Placer string `json:"placer"`
	// Batch is the per-model depth the snapshot was measured at.
	Batch int `json:"batch"`
	// AggregatePerSec is the fabric's total delivered rate at that
	// depth; FairnessJain the Jain index over normalized per-model
	// rates; InterferenceWaitNs the co-location-added NoC stall.
	AggregatePerSec    float64       `json:"aggregate_per_sec"`
	FairnessJain       float64       `json:"fairness_jain"`
	InterferenceWaitNs float64       `json:"interference_wait_ns"`
	Models             []FabricModel `json:"models"`
}

// NewFabricSnapshot converts a co-located engine-set run into the
// /stats wire form.
func NewFabricSnapshot(design, placer string, sr *sim.SetResult) FabricSnapshot {
	out := FabricSnapshot{
		Design:             design,
		Placer:             placer,
		Batch:              sr.Batch,
		AggregatePerSec:    sr.AggregatePerSec,
		FairnessJain:       sr.FairnessJain,
		InterferenceWaitNs: sr.InterferenceWaitNs,
	}
	for _, m := range sr.Models {
		out.Models = append(out.Models, FabricModel{
			Name:            m.ModelName,
			Region:          m.Region.String(),
			LatencyNs:       m.LatencyNs,
			CoLocatedPerSec: m.ThroughputPerSec,
			IsolatedPerSec:  m.IsolatedPerSec,
			SlowdownX:       m.SlowdownX,
			LinkWaitNs:      m.LinkWaitNs,
		})
	}
	return out
}

// Router routes requests to co-located model servers.
type Router struct {
	entries []RouterEntry
	byName  map[string]*Server
	fabric  *FabricSnapshot
}

// NewRouter builds a router over named servers. Names must be unique
// and non-empty.
func NewRouter(entries []RouterEntry) (*Router, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one model")
	}
	r := &Router{entries: entries, byName: make(map[string]*Server, len(entries))}
	for _, e := range entries {
		if e.Name == "" || e.Server == nil {
			return nil, fmt.Errorf("serve: router entry needs a name and a server")
		}
		if _, dup := r.byName[e.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate model %q", e.Name)
		}
		r.byName[e.Name] = e.Server
	}
	return r, nil
}

// SetFabric attaches the shared-fabric co-location snapshot to /stats.
func (r *Router) SetFabric(snap FabricSnapshot) { r.fabric = &snap }

// server returns the named model's server (the lone server when only
// one model is routed and name is empty).
func (r *Router) server(name string) (*Server, bool) {
	if name == "" && len(r.entries) == 1 {
		return r.entries[0].Server, true
	}
	s, ok := r.byName[name]
	return s, ok
}

// Names lists the served models, sorted.
func (r *Router) Names() []string {
	out := make([]string, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// Start launches every model server.
func (r *Router) Start() {
	for _, e := range r.entries {
		e.Server.Start()
	}
}

// Stop drains every model server.
func (r *Router) Stop() {
	for _, e := range r.entries {
		e.Server.Stop()
	}
}

// Handler returns the multi-model HTTP front end:
//
//	POST /infer?model=NAME — run one inference through NAME's batcher
//	                         (model may be omitted with a single model)
//	GET  /models           — served models and their backends
//	GET  /stats            — per-model snapshots + shared-fabric report
//	GET  /metrics          — every model's counters in Prometheus text,
//	                         one model="NAME" label per sample
//	GET  /trace?model=NAME — a model server's serving-trace snapshot
//	GET  /healthz          — aggregate liveness
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /infer", r.handleInfer)
	mux.HandleFunc("GET /models", r.handleModels)
	mux.HandleFunc("GET /stats", r.handleStats)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /trace", r.handleTrace)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

func (r *Router) pick(w http.ResponseWriter, req *http.Request) (*Server, bool) {
	name := req.URL.Query().Get("model")
	s, ok := r.server(name)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("unknown model %q (serving %v)", name, r.Names()),
		})
		return nil, false
	}
	return s, true
}

func (r *Router) handleInfer(w http.ResponseWriter, req *http.Request) {
	// Route, then delegate to the model server's own handler so the
	// single- and multi-model paths share one admission/error contract.
	if s, ok := r.pick(w, req); ok {
		s.handleInfer(w, req)
	}
}

func (r *Router) handleModels(w http.ResponseWriter, _ *http.Request) {
	type modelInfo struct {
		Name    string `json:"name"`
		Backend string `json:"backend"`
		Region  string `json:"region,omitempty"`
	}
	out := make([]modelInfo, 0, len(r.entries))
	regions := map[string]string{}
	if r.fabric != nil {
		for _, fm := range r.fabric.Models {
			regions[fm.Name] = fm.Region
		}
	}
	for _, e := range r.entries {
		out = append(out, modelInfo{
			Name:    e.Name,
			Backend: e.Server.cfg.Backend.Name(),
			Region:  regions[e.Name],
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// RouterStats is the /stats payload.
type RouterStats struct {
	Models map[string]Snapshot `json:"models"`
	Fabric *FabricSnapshot     `json:"fabric,omitempty"`
}

// stats snapshots every model server plus the fabric report.
func (r *Router) stats() RouterStats {
	out := RouterStats{Models: make(map[string]Snapshot, len(r.entries)), Fabric: r.fabric}
	for _, e := range r.entries {
		out.Models[e.Name] = e.Server.Stats()
	}
	return out
}

func (r *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, r.stats())
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = writeFleetMetrics(w, r.stats().Models)
}

func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	if s, ok := r.pick(w, req); ok {
		s.handleTrace(w, req)
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	states := make(map[string]string, len(r.entries))
	status := http.StatusOK
	for _, e := range r.entries {
		e.Server.mu.Lock()
		closed, started := e.Server.closed, e.Server.started
		e.Server.mu.Unlock()
		switch {
		case closed:
			states[e.Name] = "stopped"
			status = http.StatusServiceUnavailable
		case !started:
			states[e.Name] = "not started"
			status = http.StatusServiceUnavailable
		default:
			states[e.Name] = "ok"
		}
	}
	writeJSON(w, status, map[string]any{"models": states})
}
