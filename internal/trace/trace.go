// Package trace is the engine-wide observability substrate: a
// deterministic, ring-buffered event recorder shared by the pipeline
// engine (stage occupancy, link bookings, contention waits), the
// serving subsystem (per-request spans, batch membership, lifetime
// transitions), and the lifetime evaluator (canary/recalibration
// traces). Recorded timelines export as Chrome-trace JSON (loadable in
// chrome://tracing and Perfetto) and as a flat CSV (chrome.go).
//
// Design rules:
//
//   - Disabled is free: every emission site guards on a nil *Recorder,
//     and Emit itself is a nil-safe no-op, so an untraced run performs
//     zero allocations and one predicted-not-taken branch per site
//     (pinned by TestDisabledRecorderZeroAlloc and the BenchmarkTrace
//     regression gate).
//   - Enabled is allocation-free in steady state: the ring buffer is
//     allocated once at construction and events are fixed-size values;
//     names are interned up front, so no strings flow through Emit.
//   - Deterministic: events carry simulated or caller-supplied times
//     and are stored in emission order. A deterministic producer (the
//     pipeline engine) therefore yields byte-identical exports at any
//     worker count — the same contract every engine result obeys.
//   - Ring overflow keeps the NEWEST events: when the buffer is full
//     the oldest event is overwritten and Dropped() counts the loss.
//     A serving ring is a sliding window over recent traffic; an
//     engine export sizes the ring to the schedule up front
//     (sim.Engine.TraceEventsPerSample) so nothing drops.
package trace

import "sync"

// Kind classifies an event for the writers.
type Kind uint8

const (
	// KindSlice is a complete interval on its track (Chrome "X").
	KindSlice Kind = iota
	// KindInstant is a point event on its track (Chrome "i").
	KindInstant
	// KindFlow is a contention wait: an arrow from (Track, Start) to
	// (track A, Start+Dur) — Chrome "s"/"f" flow pair. A holds the
	// destination track id.
	KindFlow
	// KindAsync is an interval that may overlap others on the same
	// track (Chrome "b"/"e" async pair keyed by Seq) — per-request
	// serving spans.
	KindAsync
	// KindCounter is a sampled value A at Start (Chrome "C").
	KindCounter
)

// String names the kind for the CSV export.
func (k Kind) String() string {
	switch k {
	case KindSlice:
		return "slice"
	case KindInstant:
		return "instant"
	case KindFlow:
		return "flow"
	case KindAsync:
		return "async"
	case KindCounter:
		return "counter"
	}
	return "unknown"
}

// Event is one recorded observation. Times are nanoseconds on the
// producer's own axis (simulated ns for the engine, wall-clock ns since
// server start for serving spans, served samples for lifetime traces —
// the track's process names the axis).
type Event struct {
	Kind  Kind
	Track int32 // track id from AddTrack
	Name  int32 // interned name id from Intern
	Seq   int64 // sample index / request id / batch sequence
	Start float64
	Dur   float64
	// A and B are kind-specific payloads: flow destination track (A,
	// KindFlow), wait/queue ns, batch size, accuracy — the writers
	// surface them as args.
	A, B float64
}

// Track is one named timeline row (a Chrome thread).
type Track struct {
	Proc int32  // owning process id from AddProcess
	ID   int32  // track id, unique across the recorder
	Name string // display name
}

// Process is one group of tracks (a Chrome process) — a model on the
// fabric, a serving front end, a lifetime run.
type Process struct {
	ID   int32
	Name string
}

// Recorder is the ring-buffered event store. The zero value is NOT
// usable — build one with New. A nil *Recorder is the disabled
// recorder: every method is a safe no-op (Emit, Intern, …), which is
// what keeps untraced hot paths branch-cheap.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest event
	n       int // live events in the ring
	dropped int64

	names   []string
	nameIdx map[string]int32
	procs   []Process
	tracks  []Track
	meta    []MetaKV
}

// MetaKV is one exported metadata pair (batch fill, makespan, model
// name, …) — an ordered list, not a map, so exports are deterministic.
type MetaKV struct {
	Key, Value string
}

// DefaultCapacity is the ring size when New is given cap <= 0: large
// enough for a serving window or a mid-size batch timeline, small
// enough (~3.5 MB) to leave resident in a server.
const DefaultCapacity = 1 << 16

// New builds a recorder with the given ring capacity (<= 0 selects
// DefaultCapacity). The ring is allocated eagerly so Emit never
// allocates.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		buf:     make([]Event, capacity),
		names:   []string{""}, // id 0 = unnamed
		nameIdx: map[string]int32{"": 0},
	}
}

// Intern registers a display name and returns its id. Call at setup
// time, not on hot paths. Nil-safe (returns 0).
func (r *Recorder) Intern(s string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.nameIdx[s]; ok {
		return id
	}
	id := int32(len(r.names))
	r.names = append(r.names, s)
	r.nameIdx[s] = id
	return id
}

// Name returns the interned string for an id ("" when unknown).
func (r *Recorder) Name(id int32) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || int(id) >= len(r.names) {
		return ""
	}
	return r.names[id]
}

// AddProcess registers a track group and returns its process id.
// Nil-safe (returns 0).
func (r *Recorder) AddProcess(name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.procs) + 1) // Chrome pids start at 1
	r.procs = append(r.procs, Process{ID: id, Name: name})
	return id
}

// AddTrack registers a timeline row under a process and returns its
// track id (unique across the whole recorder). Nil-safe (returns 0).
func (r *Recorder) AddTrack(proc int32, name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.tracks) + 1)
	r.tracks = append(r.tracks, Track{Proc: proc, ID: id, Name: name})
	return id
}

// SetMeta records an exported metadata pair (last write wins).
func (r *Recorder) SetMeta(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.meta {
		if r.meta[i].Key == key {
			r.meta[i].Value = value
			return
		}
	}
	r.meta = append(r.meta, MetaKV{Key: key, Value: value})
}

// Emit records one event. Nil-safe no-op when the recorder is disabled;
// allocation-free when enabled. When the ring is full the oldest event
// is overwritten (Dropped counts the overwrites).
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.n == len(r.buf) {
		r.buf[r.start] = ev
		r.start++
		if r.start == len(r.buf) {
			r.start = 0
		}
		r.dropped++
	} else {
		i := r.start + r.n
		if i >= len(r.buf) {
			i -= len(r.buf)
		}
		r.buf[i] = ev
		r.n++
	}
	r.mu.Unlock()
}

// Len is the number of live events in the ring.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped counts events overwritten by ring overflow.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Events returns the live events oldest-first (a copy).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, r.n)
	head := copy(out, r.buf[r.start:min(r.start+r.n, len(r.buf))])
	copy(out[head:], r.buf[:r.n-head])
	return out
}

// Tracks returns the registered tracks (a copy).
func (r *Recorder) Tracks() []Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Track(nil), r.tracks...)
}

// Processes returns the registered processes (a copy).
func (r *Recorder) Processes() []Process {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Process(nil), r.procs...)
}

// metaKVs returns the metadata pairs in insertion order (a copy).
func (r *Recorder) metaKVs() []MetaKV {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]MetaKV(nil), r.meta...)
}

// Reset clears the ring and the drop counter, keeping the registered
// names, tracks, processes and metadata — re-run the same producer
// into the same topology.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.start, r.n, r.dropped = 0, 0, 0
}
