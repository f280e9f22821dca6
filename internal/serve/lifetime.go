package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/tensor"
)

// timeNow is the wall clock for trace timestamps (a var for tests).
var timeNow = time.Now

// Device-lifetime serving: replicas age with served work, a canary
// stream detects drift-induced degradation, and a closed recalibration
// loop drains the flagged replica, re-programs its crossbar planes
// (priced in joules), and returns it to rotation — with optional
// fail-open software fallback when no hardware replica is available.
//
// Simulated time is *injected*, never read from the wall clock: a Clock
// turns each served batch into simulated device-seconds, so a lifetime
// scenario is a pure function of the request trace and the seeds (the
// clock injection rule — see DESIGN.md "Device lifetime").

// Clock converts served work into simulated device time.
type Clock interface {
	// Tick returns the simulated seconds that pass while one batch of n
	// samples is served.
	Tick(n int) float64
}

// BatchClock is the deterministic work-driven clock: every batch costs
// SecondsPerSample per sample, so total simulated age is an exact
// function of served sample count regardless of how the batcher formed
// batches.
type BatchClock struct {
	SecondsPerSample float64
}

// Tick implements Clock.
func (c BatchClock) Tick(n int) float64 {
	return float64(n) * c.SecondsPerSample
}

// canaryWindow is the canary accuracies kept per replica.
const canaryWindow = 4

// LifetimeConfig switches the server into device-lifetime mode.
type LifetimeConfig struct {
	// Clock drives simulated device ageing per served batch. Required.
	Clock Clock
	// CanaryEvery runs the canary probe after this many served batches
	// per replica (default 8).
	CanaryEvery int
	// Canary is the labeled probe set. Required.
	Canary *CanarySet
	// Floor is the canary accuracy below which a pass counts against
	// the replica (default 0.95).
	Floor float64
	// FlagAfter is the consecutive below-floor passes before the
	// replica is flagged for recalibration (default 2) — the hysteresis.
	FlagAfter int
	// Fallback, when non-nil, enables fail-open: a software replica of
	// this model (one infer worker per CPU) serves whenever no hardware
	// replica is in rotation.
	Fallback *bnn.Model
	// FaultRatePerSecond, when > 0, grows a stuck-OFF defect population
	// with device wear: at total wear w seconds the stuck-off rate is
	// min(0.5, FaultRatePerSecond·w), re-drawn from FaultSeed so the
	// population only ever grows. Recalibration cannot heal it.
	FaultRatePerSecond float64
	FaultSeed          int64
}

func (c *LifetimeConfig) withDefaults() *LifetimeConfig {
	out := *c
	if out.CanaryEvery <= 0 {
		out.CanaryEvery = 8
	}
	if out.Floor <= 0 {
		out.Floor = 0.95
	}
	if out.FlagAfter <= 0 {
		out.FlagAfter = 2
	}
	return &out
}

func (c *LifetimeConfig) validate() error {
	if c.Clock == nil {
		return fmt.Errorf("serve: lifetime mode needs a Clock")
	}
	if c.Canary == nil {
		return fmt.Errorf("serve: lifetime mode needs a CanarySet")
	}
	return c.ValidatePolicy()
}

// ValidatePolicy checks the policy fields after defaults: the canary
// accuracy floor and the fault arrival rate. They need no model, so a
// caller that builds replicas, a canary set or a pricer first can reject
// a bad policy before that set-up; New checks them again.
func (c LifetimeConfig) ValidatePolicy() error {
	d := c.withDefaults()
	if !(d.Floor > 0 && d.Floor <= 1) {
		return fmt.Errorf("serve: canary accuracy floor %g outside (0, 1]", d.Floor)
	}
	if !(d.FaultRatePerSecond >= 0) || math.IsInf(d.FaultRatePerSecond, 1) {
		return fmt.Errorf("serve: fault arrival rate %g must be finite and ≥ 0", d.FaultRatePerSecond)
	}
	return nil
}

// Replica lifecycle states.
const (
	repActive        = "active"
	repRecalibrating = "recalibrating"
	repRetired       = "retired"
)

// replicaLife is one replica's lifecycle record. The age/wear/health
// fields are touched only by the replica's own worker goroutine; the
// snapshot copy is taken under the lifetime mutex, which the worker
// also holds while publishing.
type replicaLife struct {
	state      string
	age        float64 // simulated seconds since last (re)programming
	wear       float64 // simulated seconds since manufacture (never resets)
	sinceCan   int     // batches since the last canary pass
	health     *healthWindow
	canaryRuns int64
	recals     int64
	energyPJ   float64
	latencyNs  float64
	faultRate  float64
	faultCells int
}

// CanaryPoint is one canary observation — the accuracy-over-time trace.
type CanaryPoint struct {
	// Replica is the worker/replica index.
	Replica int `json:"replica"`
	// ServedSamples is the fleet-wide completed sample count when the
	// probe ran — the trace's time axis.
	ServedSamples int64 `json:"served_samples"`
	// AgeSeconds is the replica's simulated device age at the probe.
	AgeSeconds float64 `json:"age_seconds"`
	// Accuracy against the canary labels.
	Accuracy float64 `json:"accuracy"`
	// Flagged: the probe left the replica flagged for recalibration.
	Flagged bool `json:"flagged"`
	// PostRecal: the probe ran immediately after a recalibration.
	PostRecal bool `json:"post_recal"`
}

// ReplicaLife is the exported per-replica lifecycle view.
type ReplicaLife struct {
	ID             int     `json:"id"`
	State          string  `json:"state"`
	AgeSeconds     float64 `json:"age_seconds"`
	WearSeconds    float64 `json:"wear_seconds"`
	CanaryRuns     int64   `json:"canary_runs"`
	LastCanary     float64 `json:"last_canary_accuracy"`
	WindowAccuracy float64 `json:"window_accuracy"`
	Flagged        bool    `json:"flagged"`
	Recals         int64   `json:"recalibrations"`
	RecalEnergyPJ  float64 `json:"recal_energy_pj"`
	FaultCells     int     `json:"fault_cells"`
}

// LifetimeSnapshot is the lifetime block of /stats.
type LifetimeSnapshot struct {
	Replicas       []ReplicaLife `json:"replicas"`
	Recalibrations int64         `json:"recalibrations"`
	RecalEnergyPJ  float64       `json:"recal_energy_pj"`
	RecalLatencyNs float64       `json:"recal_latency_ns"`
	Retired        int           `json:"retired"`
	// FallbackServed counts samples served by the software fail-open
	// path (0 when fallback is disabled or never engaged).
	FallbackServed int64 `json:"fallback_served"`
	FallbackActive bool  `json:"fallback_active"`
}

// lifetime is the server-side lifecycle controller.
type lifetime struct {
	cfg *LifetimeConfig
	// tr mirrors the server's trace state (nil when tracing is off):
	// canary probes, drain/recalibration windows and retirements land
	// on the owning worker's track.
	tr *serveTrace

	mu     sync.Mutex
	cond   *sync.Cond // signaled when `active` drops (fallback gate)
	reps   []replicaLife
	active int // replicas currently in rotation
	alive  int // replicas not permanently retired
	trace  []CanaryPoint

	// dead is closed when every replica is retired and no fallback
	// exists — the batcher fails batches instead of blocking forever.
	dead chan struct{}
	// gone[r] is closed when replica r retires, so the batcher stops
	// dealing it batches.
	gone        []chan struct{}
	hasFallback bool

	draining       atomic.Int64 // replicas currently out of rotation recalibrating
	drainTail      atomic.Int64 // post-recal batches still attributed to the drain window
	servedSamples  atomic.Int64
	fallbackServed atomic.Int64
	fallbackBusy   atomic.Bool
}

func newLifetime(cfg *LifetimeConfig, workers int) *lifetime {
	l := &lifetime{
		cfg:         cfg,
		reps:        make([]replicaLife, workers),
		active:      workers,
		alive:       workers,
		dead:        make(chan struct{}),
		gone:        make([]chan struct{}, workers),
		hasFallback: cfg.Fallback != nil,
	}
	l.cond = sync.NewCond(&l.mu)
	for i := range l.reps {
		l.reps[i].state = repActive
		l.reps[i].health = newHealthWindow(cfg.Floor, canaryWindow, cfg.FlagAfter)
		l.gone[i] = make(chan struct{})
	}
	return l
}

// inDrain reports whether the current batch should be attributed to a
// drain window: a replica is out of rotation right now, or the batch is
// within the short post-recalibration tail (requests that queued behind
// the drain).
func (l *lifetime) inDrain() bool {
	if l.draining.Load() > 0 {
		return true
	}
	for {
		t := l.drainTail.Load()
		if t <= 0 {
			return false
		}
		if l.drainTail.CompareAndSwap(t, t-1) {
			return true
		}
	}
}

// workerExit is deferred by every workLoop: it removes the worker from
// rotation at shutdown so the fallback gate cannot wait on a goroutine
// that no longer exists.
func (l *lifetime) workerExit(id int) {
	l.mu.Lock()
	if l.reps[id].state == repActive {
		l.active--
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// setState publishes a worker's rotation transition.
func (l *lifetime) setState(id int, state string) {
	l.mu.Lock()
	prev := l.reps[id].state
	l.reps[id].state = state
	if prev == repActive && state != repActive {
		l.active--
		l.cond.Broadcast()
	}
	if prev != repActive && state == repActive {
		l.active++
	}
	if state == repRetired {
		close(l.gone[id])
		l.alive--
		if l.alive == 0 && !l.hasFallback {
			close(l.dead) // no consumer will ever return: fail open loudly
		}
	}
	l.mu.Unlock()
}

func (l *lifetime) record(p CanaryPoint) {
	l.mu.Lock()
	l.trace = append(l.trace, p)
	l.mu.Unlock()
}

// afterBatch runs the lifecycle for one replica after it served a
// batch of n samples: advance the simulated clock, periodically probe
// the canary (and grow the wear-driven fault population), and on a
// flagged health window drain + recalibrate + return (or retire when
// recalibration cannot restore the floor). Returns true when the
// replica retired — its worker leaves the rotation for good.
//
// All mutation of reps[id] happens on the replica's own worker
// goroutine; cross-goroutine visibility is via the lifetime mutex in
// setState/snapshot.
func (l *lifetime) afterBatch(id int, rep Replica, n int) bool {
	lr := rep.(LifetimeReplica) // enforced at server construction
	st := &l.reps[id]
	l.servedSamples.Add(int64(n))
	dt := l.cfg.Clock.Tick(n)
	if dt > 0 {
		lr.Age(dt)
	}
	l.mu.Lock()
	st.age += dt
	st.wear += dt
	st.sinceCan++
	due := st.sinceCan >= l.cfg.CanaryEvery
	if due {
		st.sinceCan = 0
	}
	l.mu.Unlock()
	if !due {
		return false
	}

	// Wear-driven fault arrival: the stuck-off population grows with
	// total wear; a fixed seed makes growth monotone (a faulted cell
	// stays faulted at every higher rate).
	if l.cfg.FaultRatePerSecond > 0 {
		rate := l.cfg.FaultRatePerSecond * st.wear
		if rate > 0.5 {
			rate = 0.5
		}
		if rate > st.faultRate {
			cells, err := lr.InjectFaults(crossbar.FaultModel{StuckOffRate: rate, Seed: l.cfg.FaultSeed})
			if err == nil {
				l.mu.Lock()
				st.faultRate = rate
				st.faultCells = cells
				l.mu.Unlock()
			}
		}
	}

	acc, err := l.cfg.Canary.Evaluate(rep)
	if err != nil {
		acc = 0 // a replica that cannot serve the canary is unhealthy
	}
	l.mu.Lock()
	st.canaryRuns++
	flagged := st.health.observe(acc)
	l.mu.Unlock()
	probe := CanaryPoint{Replica: id, ServedSamples: l.servedSamples.Load(),
		AgeSeconds: st.age, Accuracy: acc, Flagged: flagged}
	l.record(probe)
	if l.tr != nil {
		l.tr.canary(id, probe)
	}
	if !flagged {
		return false
	}

	// --- drain & recalibrate -------------------------------------------
	// The worker stops pulling batches (out of rotation) simply by
	// running the recalibration inline; its in-flight batch already
	// completed above, so nothing is dropped — the drain protocol.
	l.setState(id, repRecalibrating)
	l.draining.Add(1)
	recalBegan := timeNow()
	report := lr.Recalibrate()
	post, err := l.cfg.Canary.Evaluate(rep)
	if err != nil {
		post = 0
	}
	l.mu.Lock()
	st.age = 0
	st.recals++
	st.energyPJ += report.EnergyPJ
	st.latencyNs += report.LatencyNs
	st.health.reset()
	st.health.observe(post)
	st.canaryRuns++
	l.mu.Unlock()
	l.draining.Add(-1)
	l.record(CanaryPoint{Replica: id, ServedSamples: l.servedSamples.Load(),
		AgeSeconds: 0, Accuracy: post, PostRecal: true})
	if l.tr != nil {
		l.tr.recal(id, recalBegan, post)
	}
	if post < l.cfg.Floor {
		// Recalibration cannot restore the floor (permanent damage —
		// e.g. accumulated stuck-at faults): retire the replica.
		l.setState(id, repRetired)
		if l.tr != nil {
			l.tr.retired(id)
		}
		return true
	}
	l.drainTail.Add(2) // attribute the queued-behind-drain batches too
	l.setState(id, repActive)
	return false
}

// snapshot assembles the lifetime block.
func (l *lifetime) snapshot() *LifetimeSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := &LifetimeSnapshot{
		Replicas:       make([]ReplicaLife, len(l.reps)),
		FallbackServed: l.fallbackServed.Load(),
		FallbackActive: l.fallbackBusy.Load(),
	}
	for i := range l.reps {
		st := &l.reps[i]
		out.Replicas[i] = ReplicaLife{
			ID:             i,
			State:          st.state,
			AgeSeconds:     st.age,
			WearSeconds:    st.wear,
			CanaryRuns:     st.canaryRuns,
			LastCanary:     st.health.last,
			WindowAccuracy: st.health.mean(),
			Flagged:        st.health.flagged,
			Recals:         st.recals,
			RecalEnergyPJ:  st.energyPJ,
			FaultCells:     st.faultCells,
		}
		out.Recalibrations += st.recals
		out.RecalEnergyPJ += st.energyPJ
		out.RecalLatencyNs += st.latencyNs
		if st.state == repRetired {
			out.Retired++
		}
	}
	return out
}

// Trace returns a copy of the canary accuracy-over-time trace (nil when
// lifetime mode is off).
func (s *Server) Trace() []CanaryPoint {
	if s.life == nil {
		return nil
	}
	s.life.mu.Lock()
	defer s.life.mu.Unlock()
	return append([]CanaryPoint(nil), s.life.trace...)
}

// fallbackLoop is the fail-open path: a software replica that consumes
// batches only while no hardware replica is in rotation (all draining,
// recalibrating, or retired). Served samples are counted separately so
// /stats flags the degraded mode.
func (s *Server) fallbackLoop(rep Replica) {
	defer s.wg.Done()
	l := s.life
	var (
		xs    []*tensor.Float
		preds []Prediction
	)
	for {
		l.mu.Lock()
		for l.active > 0 {
			l.cond.Wait()
		}
		l.mu.Unlock()
		l.fallbackBusy.Store(true)
		job, ok := <-s.batches
		if !ok {
			l.fallbackBusy.Store(false)
			return
		}
		s.serveBatch(-1, rep, job, &xs, &preds, true)
		l.fallbackServed.Add(int64(len(job.reqs)))
		l.fallbackBusy.Store(false)
	}
}
