package eval

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/sim"
)

// Placement by name. Every command that places a model — ebsim,
// ebserve, benchfig's placement table — resolves its -placer name here,
// so one model × design × placer gets one compiled program and one
// price whichever command asks. Heuristic names resolve through
// compiler.ParsePlacer; "search" is model-bound, so Place and CoLocate
// build its engine-backed evaluator and compiler.SearchPlacer
// themselves.
//
// Co-location search: CoLocate carves the fabric into per-model
// regions with the shard placer, then improves the models one at a
// time (coordinate descent): model i's region is annealed with
// compiler.SearchPlacer against sim.SetEvaluator — the WHOLE set's
// aggregate throughput penalized by Jain fairness, with the other
// models' current layouts live on the fabric — so a layout that wins by
// starving a neighbour's NoC paths does not win. The shard warm start
// reproduces each model's incumbent layout, so no pass can decrease
// the set objective.

// ModelSearch records one model's search outcome.
type ModelSearch struct {
	Model string               `json:"model"`
	Stats compiler.SearchStats `json:"stats"`
	// Eval is the evaluator's perf accounting: cache hits, singleflight
	// collapses and engine pool reuse.
	Eval sim.EvalCounters `json:"eval"`
}

// heuristic resolves a placer name through compiler.ParsePlacer. It
// returns a nil Placer for "search", which Place and CoLocate build per
// model.
func heuristic(name string) (compiler.Placer, error) {
	if name == "search" {
		return nil, nil
	}
	return compiler.ParsePlacer(name)
}

// searchBatch is the search objective's batch size: cfg.Search.Batch,
// or the experiment's own batch when that is 0.
func (c Config) searchBatch(batch int) int {
	if c.Search.Batch != 0 {
		return c.Search.Batch
	}
	return batch
}

// Place compiles m for d with the placer named placer. For "search" the
// objective is Engine.RunBatch throughput at cfg.Search.Batch (0 means
// batch), the search runs cfg.Search.Steps candidates from
// cfg.Search.Seed over cfg.Workers, and the returned ModelSearch holds
// its stats and evaluator counters; heuristics return a nil
// ModelSearch. Deterministic at any worker count.
func Place(cfg Config, m bnn.Network, d arch.Design, placer string, batch int) (*compiler.Compiled, *ModelSearch, error) {
	p, err := heuristic(placer)
	if err != nil {
		return nil, nil, err
	}
	if p != nil {
		c, err := compiler.CompileWith(m, cfg.Arch, d, compiler.Options{Placer: p})
		return c, nil, err
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, nil, err
	}
	pe, err := simulator.PlacementEvaluator(cfg.searchBatch(batch))
	if err != nil {
		return nil, nil, err
	}
	sp, err := compiler.NewSearchPlacer(m, cfg.Arch, d, pe, compiler.SearchOptions{
		Steps: cfg.Search.Steps, Seed: cfg.Search.Seed, Workers: cfg.Workers, Trace: cfg.Search.Trace,
	})
	if err != nil {
		return nil, nil, err
	}
	c, err := compiler.CompileWith(m, cfg.Arch, d, compiler.Options{Placer: sp})
	if err != nil {
		return nil, nil, err
	}
	return c, &ModelSearch{Model: m.Name(), Stats: sp.Stats(), Eval: pe.Counters()}, nil
}

// CoLocate compiles the named zoo models onto one shared fabric with
// disjoint regions and returns the compilations plus the shared-fabric
// scheduler. This is the serving path's entry point: the multi-model
// router prices every model against the co-located pipeline. A
// heuristic placer lays out every region; "search" carves with the
// shard placer, then runs one coordinate-descent pass of annealing per
// model under the set objective at cfg.Search.Batch (0 means batch),
// model i seeded cfg.Search.Seed+i so the searches explore independent
// neighborhoods, and returns one ModelSearch per model (nil for
// heuristics). Deterministic: a pure function of (cfg, names, d,
// placer, batch).
func CoLocate(cfg Config, names []string, d arch.Design, placer string, batch int) ([]*compiler.Compiled, *sim.EngineSet, []ModelSearch, error) {
	if len(names) == 0 {
		return nil, nil, nil, fmt.Errorf("eval: no models to co-locate")
	}
	if batch < 1 {
		return nil, nil, nil, fmt.Errorf("eval: batch %d must be ≥ 1", batch)
	}
	if _, err := d.Spec(); err != nil {
		return nil, nil, nil, fmt.Errorf("eval: %w", err)
	}
	p, err := heuristic(placer)
	if err != nil {
		return nil, nil, nil, err
	}
	search := p == nil
	if search {
		p = compiler.ShardPlacer{}
	}
	var models []bnn.Network
	for _, n := range names {
		a, err := bnn.Arch(n)
		if err != nil {
			return nil, nil, nil, err
		}
		models = append(models, a)
	}
	cs, err := compiler.CompileSet(models, cfg.Arch, d, compiler.SetOptions{Placer: p})
	if err != nil {
		return nil, nil, nil, err
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, nil, nil, err
	}
	var trace []ModelSearch
	if search {
		seed := cfg.Search.Seed
		if seed == 0 {
			seed = 1
		}
		for i, m := range models {
			se, err := simulator.SetEvaluator(cs, i, cfg.searchBatch(batch))
			if err != nil {
				return nil, nil, nil, err
			}
			sp, err := compiler.NewSearchPlacer(m, cfg.Arch, d, se, compiler.SearchOptions{
				Steps: cfg.Search.Steps, Seed: seed + int64(i), Workers: cfg.Workers,
				Trace: cfg.Search.Trace,
			})
			if err != nil {
				return nil, nil, nil, err
			}
			// Search only inside the model's carved region — every
			// candidate stays tile-disjoint from the neighbours by
			// construction.
			region := cs[i].Placement.Region
			c, err := compiler.CompileWith(m, cfg.Arch, d, compiler.Options{Placer: sp, Region: &region})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("eval: %s/search: %w", m.Name(), err)
			}
			cs[i] = c
			trace = append(trace, ModelSearch{Model: m.Name(), Stats: sp.Stats(), Eval: se.Counters()})
		}
	}
	es, err := simulator.NewEngineSet(cs)
	if err != nil {
		return nil, nil, nil, err
	}
	return cs, es, trace, nil
}
