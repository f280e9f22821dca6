package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/tensor"
	"einsteinbarrier/internal/trace"
)

// Traced runs time the calls a workload makes into the program by
// wrapping the public interfaces it hands to the program: serve.Backend
// and its replicas (including the optional LifetimeReplica methods) and
// compiler.Evaluator (including the optional CachedScore). A wrapper
// forwards exactly the interfaces its inner value implements, so the
// program takes the same code paths traced and untraced. Spans are kept
// in memory and written as Chrome-trace JSON when the run ends. The
// evaluator's per-call spans (hundreds per search) are kept for the
// per-layer metrics but left out of the export, which would otherwise
// outgrow its ring on dse-search; each search span carries its
// evaluator call count instead.

// Span names recorded by the wrappers and the workloads.
const (
	spanReplicaNew = "replica.new"         // Backend.NewReplica (crossbar programming)
	spanRunBatch   = "replica.run_batch"   // serving Replica.RunBatch
	spanCanary     = "replica.canary"      // canary-sized RunBatch (lifetime mode)
	spanAge        = "replica.age"         // LifetimeReplica.Age
	spanRecal      = "replica.recalibrate" // LifetimeReplica.Recalibrate
	spanFaults     = "replica.inject_faults"
	spanHTTP       = "client.serve_http" // Handler().ServeHTTP of one request
	spanLower      = "compiler.lower"    // NewSearchPlacer (lowering)
	spanSearch     = "compiler.search"   // CompileWith under the search placer
	spanScore      = "sim.score"         // Evaluator.Score
	spanProbe      = "sim.cached_score"  // CachedEvaluator.CachedScore
)

// span is one timed call.
type span struct {
	start time.Time
	dur   time.Duration
	n     int   // batch size, or 1 for a cache hit
	seq   int64 // call index (RunBatch) or request index (HTTP)
}

// probe records spans. Safe for concurrent use; a nil *probe records
// nothing.
type probe struct {
	rec    *trace.Recorder
	proc   int32
	t0     time.Time
	mu     sync.Mutex
	tracks map[string]int32
	names  map[string]int32
	spans  map[string][]span
}

func newProbe(workload string) *probe {
	rec := trace.New(1 << 17)
	return &probe{
		rec:    rec,
		proc:   rec.AddProcess("e2ebench " + workload),
		t0:     time.Now(),
		tracks: map[string]int32{},
		names:  map[string]int32{},
		spans:  map[string][]span{},
	}
}

// record stores one span and, unless it is an evaluator call, emits it
// to the trace ring. Client HTTP spans overlap each other, so they are
// async events keyed by seq.
func (p *probe) record(name string, start time.Time, dur time.Duration, n int, seq int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans[name] = append(p.spans[name], span{start: start, dur: dur, n: n, seq: seq})
	if name == spanScore || name == spanProbe {
		return
	}
	tr, ok := p.tracks[name]
	if !ok {
		tr = p.rec.AddTrack(p.proc, name)
		p.tracks[name] = tr
		p.names[name] = p.rec.Intern(name)
	}
	kind := trace.KindSlice
	if name == spanHTTP {
		kind = trace.KindAsync
	}
	p.rec.Emit(trace.Event{Kind: kind, Track: tr, Name: p.names[name], Seq: seq,
		Start: float64(start.Sub(p.t0)), Dur: float64(dur), A: float64(n)})
}

// get returns a copy of the spans recorded under name.
func (p *probe) get(name string) []span {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]span(nil), p.spans[name]...)
}

// write exports the trace ring as Chrome-trace JSON.
func (p *probe) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, p.rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// between returns the spans that started inside [from, to).
func between(ss []span, from, to time.Time) []span {
	var out []span
	for _, s := range ss {
		if !s.start.Before(from) && s.start.Before(to) {
			out = append(out, s)
		}
	}
	return out
}

// durMs lists span durations in milliseconds.
func durMs(ss []span) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.dur)
	}
	return out
}

// --- serve.Backend -------------------------------------------------------

// tracedBackend builds timed replicas. RunBatch calls of canarySize
// samples are the lifetime canary probes (serving batches never reach
// that size in the workloads that set it); 0 disables the split.
type tracedBackend struct {
	serve.Backend
	p          *probe
	canarySize int
}

// NewReplica implements serve.Backend, forwarding LifetimeReplica when
// the inner replica implements it.
func (b *tracedBackend) NewReplica() (serve.Replica, error) {
	t := time.Now()
	r, err := b.Backend.NewReplica()
	b.p.record(spanReplicaNew, t, time.Since(t), 0, 0)
	if err != nil {
		return nil, err
	}
	tr := tracedReplica{inner: r, p: b.p, canarySize: b.canarySize}
	if lr, ok := r.(serve.LifetimeReplica); ok {
		return &tracedLifetimeReplica{tracedReplica: tr, life: lr}, nil
	}
	return &tr, nil
}

type tracedReplica struct {
	inner      serve.Replica
	p          *probe
	canarySize int
	batches    int64 // calls so far; a replica serves one goroutine at a time
}

// RunBatch implements serve.Replica.
func (r *tracedReplica) RunBatch(xs []*tensor.Float, out []serve.Prediction) error {
	name := spanRunBatch
	if r.canarySize > 0 && len(xs) == r.canarySize {
		name = spanCanary
	}
	t := time.Now()
	err := r.inner.RunBatch(xs, out)
	r.p.record(name, t, time.Since(t), len(xs), r.batches)
	r.batches++
	return err
}

type tracedLifetimeReplica struct {
	tracedReplica
	life serve.LifetimeReplica
}

// Age implements serve.LifetimeReplica.
func (r *tracedLifetimeReplica) Age(seconds float64) {
	t := time.Now()
	r.life.Age(seconds)
	r.p.record(spanAge, t, time.Since(t), 0, 0)
}

// Recalibrate implements serve.LifetimeReplica.
func (r *tracedLifetimeReplica) Recalibrate() robust.RecalReport {
	t := time.Now()
	rep := r.life.Recalibrate()
	r.p.record(spanRecal, t, time.Since(t), 0, 0)
	return rep
}

// InjectFaults implements serve.LifetimeReplica.
func (r *tracedLifetimeReplica) InjectFaults(f crossbar.FaultModel) (int, error) {
	t := time.Now()
	n, err := r.life.InjectFaults(f)
	r.p.record(spanFaults, t, time.Since(t), n, 0)
	return n, err
}

// --- compiler.Evaluator --------------------------------------------------

// evalTally is one wrapped evaluator's own accounting: the search that
// owns it subtracts evalNs from its duration to get its self time.
type evalTally struct {
	evalNs, scores, probes, hits atomic.Int64
}

type tracedEvaluator struct {
	inner compiler.Evaluator
	p     *probe
	tally *evalTally
}

// Score implements compiler.Evaluator.
func (e *tracedEvaluator) Score(c *compiler.Compiled) (float64, error) {
	t := time.Now()
	v, err := e.inner.Score(c)
	d := time.Since(t)
	e.p.record(spanScore, t, d, 0, 0)
	e.tally.evalNs.Add(int64(d))
	e.tally.scores.Add(1)
	return v, err
}

type tracedCachedEvaluator struct {
	tracedEvaluator
	cached compiler.CachedEvaluator
}

// CachedScore implements compiler.CachedEvaluator.
func (e *tracedCachedEvaluator) CachedScore(model string, design arch.Design, p *compiler.Placement) (float64, bool) {
	t := time.Now()
	v, ok := e.cached.CachedScore(model, design, p)
	d := time.Since(t)
	hit := 0
	if ok {
		hit = 1
		e.tally.hits.Add(1)
	}
	e.p.record(spanProbe, t, d, hit, 0)
	e.tally.evalNs.Add(int64(d))
	e.tally.probes.Add(1)
	return v, ok
}

// wrapEvaluator times ev, forwarding CachedScore only when ev has it.
func wrapEvaluator(ev compiler.Evaluator, p *probe) (compiler.Evaluator, *evalTally) {
	tally := &evalTally{}
	te := tracedEvaluator{inner: ev, p: p, tally: tally}
	if c, ok := ev.(compiler.CachedEvaluator); ok {
		return &tracedCachedEvaluator{tracedEvaluator: te, cached: c}, tally
	}
	return &te, tally
}
