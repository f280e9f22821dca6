package sim

import (
	"fmt"
	"math"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
)

// Multi-program scheduling. An EngineSet runs several co-located
// compilations (compiler.CompileSet) against ONE fabric clock: every
// model owns its tiles (disjoint regions, enforced here), but the mesh
// links and chip ports are shared, so one model's drain traffic and
// host egress collide with its neighbours'. RunSet streams B samples
// of every model round-robin and reports per-model throughput next to
// the isolated baseline — the co-location interference the per-model
// engines cannot see — plus a Jain fairness index over the normalized
// rates.
//
// Like Engine, a set is built for reuse: swap re-prices one slot with
// a new candidate compilation (the coordinate-descent move of
// SetEvaluator) without rebuilding the other engines, and the isolated
// baselines — which do not depend on the neighbours at all — are cached
// per slot until the slot or the batch size changes.

// EngineSet schedules co-located models. Build with NewEngineSet; like
// Engine, a set carries run scratch and is not safe for concurrent
// RunSet calls.
type EngineSet struct {
	engines []*Engine
	design  arch.Design
	fb      *fabricClock
	binds   []binding  // per-engine bindings to the shared clock
	bindPs  []*binding // the same bindings, for variadic reseal
	// iso caches the isolated per-model baselines (cloned — engine
	// results are recycled): invalidated per slot by swap, wholesale by
	// a batch-size change.
	iso  []*BatchResult
	isoB int
	// run scratch.
	fill, mk []float64
}

// Engines exposes the per-model engines (isolated pricing, ceilings).
func (es *EngineSet) Engines() []*Engine { return es.engines }

// NewEngineSet builds the shared-fabric scheduler over co-located
// compilations. All models must target the same design (one fabric)
// and occupy pairwise-disjoint tiles.
func (s *Simulator) NewEngineSet(cs []*compiler.Compiled) (*EngineSet, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("sim: engine set needs at least one compilation")
	}
	es := &EngineSet{fb: newFabricClock(), design: cs[0].Design}
	for _, c := range cs {
		if c.Design != es.design {
			return nil, fmt.Errorf("sim: engine set mixes designs %v and %v (one fabric, one design)", es.design, c.Design)
		}
		e, err := s.NewEngine(c)
		if err != nil {
			return nil, fmt.Errorf("sim: %s: %w", c.ModelName, err)
		}
		es.engines = append(es.engines, e)
	}
	n := len(es.engines)
	es.binds = make([]binding, n)
	es.iso = make([]*BatchResult, n)
	es.fill = make([]float64, n)
	es.mk = make([]float64, n)
	for i, e := range es.engines {
		e.bindTo(es.fb, &es.binds[i])
		es.bindPs = append(es.bindPs, &es.binds[i])
	}
	es.fb.seal(es.bindPs...)
	if err := es.checkDisjoint(); err != nil {
		return nil, err
	}
	return es, nil
}

// checkDisjoint enforces that co-located models do not share compute
// tiles.
func (es *EngineSet) checkDisjoint() error {
	owner := map[int]string{}
	for _, e := range es.engines {
		for _, t := range e.tileSet() {
			if prev, ok := owner[t]; ok {
				return fmt.Errorf("sim: models %s and %s both occupy tile %d (regions must be disjoint)",
					prev, e.res.ModelName, t)
			}
			owner[t] = e.res.ModelName
		}
	}
	return nil
}

// swap re-prices slot idx with a new compilation of the same design,
// reusing the slot's engine and the shared calendars — the cheap path
// for evaluating many candidate placements of one model against fixed
// neighbours. The slot's isolated baseline is invalidated; the
// neighbours' stay cached. On error the set is left in an undefined
// state and must be discarded.
func (es *EngineSet) swap(idx int, c *compiler.Compiled) error {
	if idx < 0 || idx >= len(es.engines) {
		return fmt.Errorf("sim: swap slot %d outside set of %d", idx, len(es.engines))
	}
	if c.Design != es.design {
		return fmt.Errorf("sim: engine set mixes designs %v and %v (one fabric, one design)", es.design, c.Design)
	}
	if err := es.engines[idx].reprice(c); err != nil {
		return fmt.Errorf("sim: %s: %w", c.ModelName, err)
	}
	es.engines[idx].bindTo(es.fb, &es.binds[idx])
	es.fb.seal(es.bindPs...)
	es.iso[idx] = nil
	return es.checkDisjoint()
}

// SetModelResult is one co-located model's view of a RunSet.
type SetModelResult struct {
	ModelName string
	Design    arch.Design
	// Region is the fabric slice the model was placed into.
	Region compiler.Region
	// LatencyNs is the model's single-inference critical path (Fig. 7
	// pricing, co-location independent).
	LatencyNs float64
	// FillLatencyNs is when the model's FIRST sample completed inside
	// the co-located schedule.
	FillLatencyNs float64
	// MakespanNs / ThroughputPerSec describe the model's B samples under
	// co-location; IsolatedPerSec is the same engine alone on the
	// fabric. SlowdownX = IsolatedPerSec / ThroughputPerSec (≥ ~1).
	MakespanNs       float64
	ThroughputPerSec float64
	IsolatedPerSec   float64
	SlowdownX        float64
	// LinkWaitNs is the model's NoC stall time under co-location;
	// IsolatedLinkWaitNs the same model alone — the difference is pure
	// interference.
	LinkWaitNs         float64
	IsolatedLinkWaitNs float64
	// EnergyPJPerInference is the per-sample energy.
	EnergyPJPerInference float64
}

// SetResult is the outcome of a co-located batch run.
type SetResult struct {
	// Batch is the per-model sample count.
	Batch int
	// MakespanNs is when the last sample of any model completed.
	MakespanNs float64
	// AggregatePerSec is the fabric's total delivered rate:
	// models × batch / makespan.
	AggregatePerSec float64
	// FairnessJain is Jain's index over the models' normalized rates
	// (co-located / isolated): 1.0 = perfectly even interference, 1/n =
	// one model starved.
	FairnessJain float64
	// InterferenceWaitNs is the total link-wait added by co-location
	// (Σ co-located waits − Σ isolated waits, floored at 0).
	InterferenceWaitNs float64
	// Models has one entry per co-located model, in input order.
	Models []SetModelResult
}

// RunSet streams b samples of every model through the shared fabric,
// round-robin by sample (sample i of every model is admitted before
// sample i+1 of any). Deterministic: same set, same b, same result.
func (es *EngineSet) RunSet(b int) (*SetResult, error) {
	if err := CheckBatch(b); err != nil {
		return nil, err
	}
	// Isolated baselines first (each on a private fabric clock). These
	// run untraced — the exported timeline is the co-located schedule,
	// not three schedules overlaid on the same time axis. The baselines
	// are independent of the neighbours, so they are cached (cloned)
	// until their slot is swapped or the batch size changes.
	if es.isoB != b {
		clear(es.iso)
		es.isoB = b
	}
	for i, e := range es.engines {
		if es.iso[i] != nil {
			continue
		}
		tr := e.tr
		e.tr = nil
		br, err := e.RunBatch(b)
		e.tr = tr
		if err != nil {
			return nil, err
		}
		es.iso[i] = br.Clone()
	}
	iso := es.iso
	// Co-located run against the shared clock.
	es.fb.ensure(b)
	es.fb.reset()
	for _, e := range es.engines {
		e.resetLocal()
	}
	fill, mk := es.fill, es.mk
	for sample := 0; sample < b; sample++ {
		for i, e := range es.engines {
			t := e.runSample(&es.binds[i])
			if sample == 0 {
				fill[i] = t
			}
			mk[i] = t
		}
	}
	out := &SetResult{Batch: b}
	var sumX, sumX2 float64
	for i, e := range es.engines {
		co := float64(b) * 1e9 / mk[i]
		m := SetModelResult{
			ModelName:            e.res.ModelName,
			Design:               e.res.Design,
			LatencyNs:            e.res.LatencyNs,
			FillLatencyNs:        fill[i],
			MakespanNs:           mk[i],
			ThroughputPerSec:     co,
			IsolatedPerSec:       iso[i].ThroughputPerSec,
			SlowdownX:            iso[i].ThroughputPerSec / co,
			LinkWaitNs:           e.linkWaitNs,
			IsolatedLinkWaitNs:   iso[i].LinkWaitNs,
			EnergyPJPerInference: e.res.EnergyPJ(),
		}
		if pl := e.placement; pl != nil {
			m.Region = pl.Region
		}
		x := co / iso[i].ThroughputPerSec
		sumX += x
		sumX2 += x * x
		out.MakespanNs = math.Max(out.MakespanNs, mk[i])
		out.InterferenceWaitNs += math.Max(e.linkWaitNs-iso[i].LinkWaitNs, 0)
		out.Models = append(out.Models, m)
	}
	n := float64(len(es.engines))
	out.AggregatePerSec = n * float64(b) * 1e9 / out.MakespanNs
	if sumX2 > 0 {
		out.FairnessJain = sumX * sumX / (n * sumX2)
	}
	es.traceMeta(out)
	return out, nil
}
