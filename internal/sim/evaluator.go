package sim

import (
	"fmt"
	"sync"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
)

// Engine-backed placement evaluators: the objective functions behind
// compiler.SearchPlacer. Both price candidates with the pipeline engine
// itself — RunBatch for a single model, RunSet for a co-located set —
// and memoize on the placement's canonical fingerprint, generalizing
// serve.Pricer's batch-size memoization to layouts. Neighborhood moves
// revisit layouts constantly (a border shift clamps back to the
// incumbent, annealing walks retrace themselves), so the cache is what
// makes engine-in-the-loop search affordable; BenchmarkPlacerSearch
// pins the hit rate.
//
// Cache misses are engineered to be cheap too: each evaluator keeps a
// pool of idle engines (engine sets) keyed on the compiled program's
// structural shape and re-prices a pooled engine (Engine.reprice /
// EngineSet.swap) instead of rebuilding calendars and stages per
// candidate, and concurrent misses on one fingerprint are collapsed
// with singleflight so parallel search workers compute it once.

// EvalCounters reports what an evaluator did: cache effectiveness and
// engine-pool reuse. Hits counts memo hits plus singleflight waits
// (lookups that did not pay a schedule). PoolBuilds/PoolReuses split
// the computes by whether they constructed an engine or re-priced a
// pooled one.
type EvalCounters struct {
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Computes   int64 `json:"computes"`
	PoolBuilds int64 `json:"pool_builds"`
	PoolReuses int64 `json:"pool_reuses"`
}

// HitRate is Hits/Lookups (0 before the first lookup).
func (ec EvalCounters) HitRate() float64 {
	if ec.Lookups == 0 {
		return 0
	}
	return float64(ec.Hits) / float64(ec.Lookups)
}

// PoolReuseRate is PoolReuses/Computes (0 before the first compute).
func (ec EvalCounters) PoolReuseRate() float64 {
	if ec.Computes == 0 {
		return 0
	}
	return float64(ec.PoolReuses) / float64(ec.Computes)
}

// memo is the fingerprint cache both evaluators share: values keyed by
// placement fingerprint, concurrent misses on one key collapsed into a
// single compute (singleflight), idle engines pooled by structural
// shape, and the counters. Safe for concurrent use.
type memo[V, E any] struct {
	mu       sync.Mutex
	vals     map[string]V
	inflight map[string]*flight[V]
	pool     map[string][]E
	counters EvalCounters
}

// flight is one in-flight computation other lookups can wait on.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func newMemo[V, E any]() *memo[V, E] {
	return &memo[V, E]{
		vals:     map[string]V{},
		inflight: map[string]*flight[V]{},
		pool:     map[string][]E{},
	}
}

// cached reports a memoized value. A hit counts as a lookup and a hit;
// a miss counts nothing (the get that follows records it).
func (m *memo[V, E]) cached(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vals[key]
	if ok {
		m.counters.Lookups++
		m.counters.Hits++
	}
	return v, ok
}

// get returns the value for key, from the memo or from an in-flight
// computation of it when there is one. Otherwise it runs compute once,
// handing it an idle engine of the given shape (reused) or the zero E
// (build one). On success the value is memoized and the returned engine
// goes back to the pool; on error the engine's state is undefined and
// it is dropped.
func (m *memo[V, E]) get(key, shape string, compute func(idle E, reused bool) (V, E, error)) (V, error) {
	m.mu.Lock()
	m.counters.Lookups++
	if v, ok := m.vals[key]; ok {
		m.counters.Hits++
		m.mu.Unlock()
		return v, nil
	}
	if fl, ok := m.inflight[key]; ok {
		// Another goroutine is already pricing this fingerprint: wait for
		// its result instead of re-running the schedule.
		m.counters.Hits++
		m.mu.Unlock()
		<-fl.done
		return fl.v, fl.err
	}
	fl := &flight[V]{done: make(chan struct{})}
	m.inflight[key] = fl
	var idle E
	reused := false
	if n := len(m.pool[shape]); n > 0 {
		idle, reused = m.pool[shape][n-1], true
		m.pool[shape] = m.pool[shape][:n-1]
	}
	m.mu.Unlock()

	v, eng, err := compute(idle, reused)

	m.mu.Lock()
	fl.v, fl.err = v, err
	if err == nil {
		m.vals[key] = v
		m.pool[shape] = append(m.pool[shape], eng)
		m.counters.Computes++
		if reused {
			m.counters.PoolReuses++
		} else {
			m.counters.PoolBuilds++
		}
	}
	delete(m.inflight, key)
	m.mu.Unlock()
	close(fl.done)
	return v, err
}

// snapshot returns a copy of the counters.
func (m *memo[V, E]) snapshot() EvalCounters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters
}

// PlacementEvaluator scores one model's candidate placements by batch
// throughput. Safe for concurrent use; concurrent misses on the same
// key collapse into one computation (singleflight).
type PlacementEvaluator struct {
	s     *Simulator
	batch int
	memo  *memo[*BatchResult, *Engine] // evaluator-owned result clones
}

// PlacementEvaluator builds an evaluator that prices candidates with
// Engine.RunBatch at the given batch size.
func (s *Simulator) PlacementEvaluator(batch int) (*PlacementEvaluator, error) {
	if err := CheckBatch(batch); err != nil {
		return nil, err
	}
	return &PlacementEvaluator{s: s, batch: batch, memo: newMemo[*BatchResult, *Engine]()}, nil
}

// Score implements compiler.Evaluator: measured inf/s of the candidate
// at the evaluator's batch size.
func (pe *PlacementEvaluator) Score(c *compiler.Compiled) (float64, error) {
	br, err := pe.result(c)
	if err != nil {
		return 0, err
	}
	return br.ThroughputPerSec, nil
}

// CachedScore implements compiler.CachedEvaluator: it reports a
// previously priced layout's objective from the fingerprint memo alone,
// letting the search placer skip candidate compilation entirely on
// revisits. A probe that hits counts as a lookup+hit; a miss counts
// nothing (the subsequent Result call records it).
func (pe *PlacementEvaluator) CachedScore(model string, design arch.Design, p *compiler.Placement) (float64, bool) {
	br, ok := pe.memo.cached(model + "/" + design.String() + "/" + p.Fingerprint())
	if !ok {
		return 0, false
	}
	return br.ThroughputPerSec, true
}

// result returns the full BatchResult of a candidate, from the cache
// when its placement fingerprint was priced before. Callers must treat
// the result as read-only — it is shared across cache hits.
func (pe *PlacementEvaluator) result(c *compiler.Compiled) (*BatchResult, error) {
	if c.Placement == nil {
		return nil, fmt.Errorf("sim: compiled %s has no placement to fingerprint", c.ModelName)
	}
	key := c.ModelName + "/" + c.Design.String() + "/" + c.Placement.Fingerprint()
	// Engines are interchangeable across candidates of one (model,
	// design): the stage structure is fixed, only placements differ.
	shape := c.ModelName + "|" + c.Design.String()
	return pe.memo.get(key, shape, func(eng *Engine, reused bool) (*BatchResult, *Engine, error) {
		var err error
		if reused {
			err = eng.reprice(c)
		} else {
			eng, err = pe.s.NewEngine(c)
		}
		if err != nil {
			return nil, nil, err
		}
		br, err := eng.RunBatch(pe.batch)
		if err != nil {
			return nil, nil, err
		}
		return br.Clone(), eng, nil
	})
}

// Counters returns a snapshot of the evaluator's perf counters.
func (pe *PlacementEvaluator) Counters() EvalCounters { return pe.memo.snapshot() }

// HitRate is hits/lookups (0 before the first lookup).
func (pe *PlacementEvaluator) HitRate() float64 { return pe.Counters().HitRate() }

// SetEvaluator scores candidate placements of ONE model of a co-located
// set by the whole fabric's interference-aware objective: the set's
// aggregate throughput penalized by Jain fairness (AggregatePerSec ×
// FairnessJain), so a layout that speeds its own model up by starving a
// neighbor's NoC paths does not win. The other models' compilations are
// fixed for the evaluator's lifetime; co-location search runs one
// evaluator per model (coordinate descent, eval.CoLocate with "search").
type SetEvaluator struct {
	s     *Simulator
	set   []*compiler.Compiled
	idx   int
	batch int
	// The other slots are fixed, so the candidate's fingerprint alone
	// keys the memo, and every pooled set is built from the same base.
	memo *memo[float64, *EngineSet]
}

// SetEvaluator builds the co-location objective for slot idx of the
// set. The set slice is captured by copy; candidates replace slot idx.
func (s *Simulator) SetEvaluator(set []*compiler.Compiled, idx, batch int) (*SetEvaluator, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("sim: set evaluator needs a non-empty set")
	}
	if idx < 0 || idx >= len(set) {
		return nil, fmt.Errorf("sim: set evaluator slot %d outside set of %d", idx, len(set))
	}
	if err := CheckBatch(batch); err != nil {
		return nil, err
	}
	cp := make([]*compiler.Compiled, len(set))
	copy(cp, set)
	return &SetEvaluator{s: s, set: cp, idx: idx, batch: batch, memo: newMemo[float64, *EngineSet]()}, nil
}

// Score implements compiler.Evaluator: AggregatePerSec × FairnessJain
// of the set with the candidate in its slot.
func (se *SetEvaluator) Score(c *compiler.Compiled) (float64, error) {
	if c.Placement == nil {
		return 0, fmt.Errorf("sim: compiled %s has no placement to fingerprint", c.ModelName)
	}
	return se.memo.get(c.Placement.Fingerprint(), "", func(es *EngineSet, reused bool) (float64, *EngineSet, error) {
		if !reused {
			var err error
			// The base set (incumbent in the slot) compiles once; swap
			// below re-prices the slot with the candidate.
			if es, err = se.s.NewEngineSet(se.set); err != nil {
				return 0, nil, err
			}
		}
		if err := es.swap(se.idx, c); err != nil {
			return 0, nil, err
		}
		sr, err := es.RunSet(se.batch)
		if err != nil {
			return 0, nil, err
		}
		return sr.AggregatePerSec * sr.FairnessJain, es, nil
	})
}

// CachedScore implements compiler.CachedEvaluator (the model/design
// arguments are ignored: a SetEvaluator is bound to one slot of one
// set, and the memo is keyed by candidate fingerprint alone).
func (se *SetEvaluator) CachedScore(_ string, _ arch.Design, p *compiler.Placement) (float64, bool) {
	return se.memo.cached(p.Fingerprint())
}

// Counters returns a snapshot of the evaluator's perf counters.
func (se *SetEvaluator) Counters() EvalCounters { return se.memo.snapshot() }
