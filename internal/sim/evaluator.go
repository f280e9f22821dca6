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
// structural shape and re-prices a pooled engine (Engine.Reprice /
// EngineSet.Swap) instead of rebuilding calendars and stages per
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

// evalFlight is one in-flight computation other lookups can wait on.
type evalFlight struct {
	done chan struct{}
	br   *BatchResult
	err  error
}

// PlacementEvaluator scores one model's candidate placements by batch
// throughput. Safe for concurrent use; concurrent misses on the same
// key collapse into one computation (singleflight).
type PlacementEvaluator struct {
	s     *Simulator
	batch int

	mu       sync.Mutex
	memo     map[string]*BatchResult // evaluator-owned clones
	inflight map[string]*evalFlight
	pool     map[string][]*Engine // structural shape → idle engines
	counters EvalCounters
}

// PlacementEvaluator builds an evaluator that prices candidates with
// Engine.RunBatch at the given batch size.
func (s *Simulator) PlacementEvaluator(batch int) (*PlacementEvaluator, error) {
	if batch < 1 {
		return nil, fmt.Errorf("sim: evaluator batch %d must be ≥ 1", batch)
	}
	return &PlacementEvaluator{
		s:        s,
		batch:    batch,
		memo:     map[string]*BatchResult{},
		inflight: map[string]*evalFlight{},
		pool:     map[string][]*Engine{},
	}, nil
}

// Batch returns the objective batch size.
func (pe *PlacementEvaluator) Batch() int { return pe.batch }

// Score implements compiler.Evaluator: measured inf/s of the candidate
// at the evaluator's batch size.
func (pe *PlacementEvaluator) Score(c *compiler.Compiled) (float64, error) {
	br, err := pe.Result(c)
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
	key := model + "/" + design.String() + "/" + p.Fingerprint()
	pe.mu.Lock()
	defer pe.mu.Unlock()
	if br, ok := pe.memo[key]; ok {
		pe.counters.Lookups++
		pe.counters.Hits++
		return br.ThroughputPerSec, true
	}
	return 0, false
}

// Result returns the full BatchResult of a candidate, from the cache
// when its placement fingerprint was priced before. Callers must treat
// the result as read-only — it is shared across cache hits.
func (pe *PlacementEvaluator) Result(c *compiler.Compiled) (*BatchResult, error) {
	if c.Placement == nil {
		return nil, fmt.Errorf("sim: compiled %s has no placement to fingerprint", c.ModelName)
	}
	key := c.ModelName + "/" + c.Design.String() + "/" + c.Placement.Fingerprint()
	pe.mu.Lock()
	pe.counters.Lookups++
	if br, ok := pe.memo[key]; ok {
		pe.counters.Hits++
		pe.mu.Unlock()
		return br, nil
	}
	if fl, ok := pe.inflight[key]; ok {
		// Another goroutine is already pricing this fingerprint: wait for
		// its result instead of re-running the schedule.
		pe.counters.Hits++
		pe.mu.Unlock()
		<-fl.done
		return fl.br, fl.err
	}
	fl := &evalFlight{done: make(chan struct{})}
	pe.inflight[key] = fl
	pe.mu.Unlock()

	br, err := pe.compute(c)

	pe.mu.Lock()
	fl.br, fl.err = br, err
	if err == nil {
		pe.memo[key] = br
	}
	delete(pe.inflight, key)
	pe.mu.Unlock()
	close(fl.done)
	return br, err
}

// compute prices one candidate on a pooled (or fresh) engine and
// returns an evaluator-owned clone of the result.
func (pe *PlacementEvaluator) compute(c *compiler.Compiled) (*BatchResult, error) {
	// Engines are interchangeable across candidates of one (model,
	// design): the stage structure is fixed, only placements differ.
	shape := c.ModelName + "|" + c.Design.String()
	pe.mu.Lock()
	var eng *Engine
	if idle := pe.pool[shape]; len(idle) > 0 {
		eng = idle[len(idle)-1]
		pe.pool[shape] = idle[:len(idle)-1]
	}
	pe.mu.Unlock()
	reused := eng != nil
	var err error
	if reused {
		err = eng.Reprice(c)
	} else {
		eng, err = pe.s.NewEngine(c)
	}
	if err != nil {
		// A failed configure leaves the engine undefined: drop it.
		return nil, err
	}
	br, err := eng.RunBatch(pe.batch)
	if err != nil {
		return nil, err
	}
	clone := br.Clone()
	pe.mu.Lock()
	pe.pool[shape] = append(pe.pool[shape], eng)
	pe.counters.Computes++
	if reused {
		pe.counters.PoolReuses++
	} else {
		pe.counters.PoolBuilds++
	}
	pe.mu.Unlock()
	return clone, nil
}

// Counters returns a snapshot of the evaluator's perf counters.
func (pe *PlacementEvaluator) Counters() EvalCounters {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.counters
}

// Stats returns the cache counters: total lookups and hits.
func (pe *PlacementEvaluator) Stats() (lookups, hits int64) {
	pe.mu.Lock()
	defer pe.mu.Unlock()
	return pe.counters.Lookups, pe.counters.Hits
}

// HitRate is hits/lookups (0 before the first lookup).
func (pe *PlacementEvaluator) HitRate() float64 {
	return pe.Counters().HitRate()
}

// setFlight is one in-flight set computation.
type setFlight struct {
	done chan struct{}
	v    float64
	err  error
}

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

	mu       sync.Mutex
	memo     map[string]float64
	inflight map[string]*setFlight
	pool     []*EngineSet // idle sets (all built from the same base set)
	counters EvalCounters
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
	if batch < 1 {
		return nil, fmt.Errorf("sim: evaluator batch %d must be ≥ 1", batch)
	}
	cp := make([]*compiler.Compiled, len(set))
	copy(cp, set)
	return &SetEvaluator{
		s:        s,
		set:      cp,
		idx:      idx,
		batch:    batch,
		memo:     map[string]float64{},
		inflight: map[string]*setFlight{},
	}, nil
}

// Score implements compiler.Evaluator: AggregatePerSec × FairnessJain
// of the set with the candidate in its slot.
func (se *SetEvaluator) Score(c *compiler.Compiled) (float64, error) {
	if c.Placement == nil {
		return 0, fmt.Errorf("sim: compiled %s has no placement to fingerprint", c.ModelName)
	}
	// The other slots are fixed, so the candidate's fingerprint alone
	// keys the memo.
	key := c.Placement.Fingerprint()
	se.mu.Lock()
	se.counters.Lookups++
	if v, ok := se.memo[key]; ok {
		se.counters.Hits++
		se.mu.Unlock()
		return v, nil
	}
	if fl, ok := se.inflight[key]; ok {
		se.counters.Hits++
		se.mu.Unlock()
		<-fl.done
		return fl.v, fl.err
	}
	fl := &setFlight{done: make(chan struct{})}
	se.inflight[key] = fl
	se.mu.Unlock()

	v, err := se.compute(c)

	se.mu.Lock()
	fl.v, fl.err = v, err
	if err == nil {
		se.memo[key] = v
	}
	delete(se.inflight, key)
	se.mu.Unlock()
	close(fl.done)
	return v, err
}

// CachedScore implements compiler.CachedEvaluator (the model/design
// arguments are ignored: a SetEvaluator is bound to one slot of one
// set, and the memo is keyed by candidate fingerprint alone).
func (se *SetEvaluator) CachedScore(_ string, _ arch.Design, p *compiler.Placement) (float64, bool) {
	key := p.Fingerprint()
	se.mu.Lock()
	defer se.mu.Unlock()
	if v, ok := se.memo[key]; ok {
		se.counters.Lookups++
		se.counters.Hits++
		return v, true
	}
	return 0, false
}

// compute swaps the candidate into a pooled (or fresh) engine set and
// runs the co-located schedule.
func (se *SetEvaluator) compute(c *compiler.Compiled) (float64, error) {
	se.mu.Lock()
	var es *EngineSet
	if n := len(se.pool); n > 0 {
		es = se.pool[n-1]
		se.pool = se.pool[:n-1]
	}
	se.mu.Unlock()
	reused := es != nil
	if !reused {
		var err error
		// The base set (incumbent in the slot) compiles once; Swap below
		// re-prices the slot with the candidate.
		if es, err = se.s.NewEngineSet(se.set); err != nil {
			return 0, err
		}
	}
	// On any error the set's state is undefined (a half-applied swap, an
	// overlapping candidate): drop it rather than pooling it.
	if err := es.Swap(se.idx, c); err != nil {
		return 0, err
	}
	sr, err := es.RunSet(se.batch)
	if err != nil {
		return 0, err
	}
	v := sr.AggregatePerSec * sr.FairnessJain
	se.mu.Lock()
	se.pool = append(se.pool, es)
	se.counters.Computes++
	if reused {
		se.counters.PoolReuses++
	} else {
		se.counters.PoolBuilds++
	}
	se.mu.Unlock()
	return v, nil
}

// Counters returns a snapshot of the evaluator's perf counters.
func (se *SetEvaluator) Counters() EvalCounters {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.counters
}

// Stats returns the cache counters: total lookups and hits.
func (se *SetEvaluator) Stats() (lookups, hits int64) {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.counters.Lookups, se.counters.Hits
}

// HitRate is hits/lookups (0 before the first lookup).
func (se *SetEvaluator) HitRate() float64 {
	return se.Counters().HitRate()
}
