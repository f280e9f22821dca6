package compiler

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/trace"
)

// Search-based placement. The three shipped placers are one-shot
// heuristics; SearchPlacer closes the loop with the thing we actually
// optimize for: it anneals over rectangle assignments and scores every
// candidate by compiling it (through the hoisted Lowered prefix) and
// pricing the compilation on the injected Evaluator — in production
// wiring, sim.PlacementEvaluator's Engine.RunBatch at a configurable
// batch size, i.e. measured inf/s with real NoC contention, never an
// analytic proxy. The three heuristics' outputs are warm starts and the
// best layout ever evaluated is what Place returns, so search ≥ best
// heuristic holds by construction.
//
// Determinism rule: the result is a pure function of (model, config,
// design, seed, steps). Every round proposes a FIXED number of
// candidates from the proposal RNG sequentially, scores them in
// parallel over the infer pool (scores are pure), and applies
// Metropolis acceptance in candidate-index order with one acceptance
// RNG draw per candidate — so the worker count never changes the RNG
// schedule or the outcome.

// DefaultSearchSteps is the default candidate-evaluation budget.
const DefaultSearchSteps = 240

// searchRound is the number of candidates proposed per annealing round
// — fixed, independent of the worker count, so parallel evaluation is
// bit-identical to serial.
const searchRound = 4

// Annealing temperature schedule: geometric from searchT0 to searchTEnd
// over the rounds, on the RELATIVE throughput delta (a candidate 2%
// slower than the incumbent is accepted with p=e^(-0.02/T)).
const (
	searchT0   = 0.05
	searchTEnd = 0.002
)

// Evaluator prices one candidate compilation. Implementations must be
// deterministic and safe for concurrent use; sim.PlacementEvaluator
// (single model, Engine.RunBatch) and sim.SetEvaluator (co-location,
// EngineSet.RunSet with a Jain-fairness-penalized aggregate) are the
// production ones. The compiler package cannot import sim, hence the
// injection.
type Evaluator interface {
	// Score returns the candidate's objective value (higher is better).
	Score(c *Compiled) (float64, error)
}

// CachedEvaluator is an Evaluator that can report a previously priced
// layout's score from the placement fingerprint alone — letting the
// search placer skip candidate compilation entirely on revisits (a
// border shift clamping back to the incumbent, an annealing walk
// retracing itself). CachedScore must return exactly what Score
// returned for the same layout, or report a miss; both sim evaluators
// implement it over their fingerprint memos.
type CachedEvaluator interface {
	Evaluator
	CachedScore(model string, design arch.Design, p *Placement) (float64, bool)
}

// SearchOptions parameterizes the annealing placer.
type SearchOptions struct {
	// Steps is the candidate-evaluation budget (0 = DefaultSearchSteps).
	Steps int
	// Seed seeds the proposal and acceptance RNG streams (0 = 1).
	Seed int64
	// Workers bounds the parallel candidate evaluation (0 = one per
	// CPU). The placement found is bit-identical at any worker count.
	Workers int
	// Trace, when non-nil, records the search trajectory — one counter
	// event per objective evaluation, the evaluation index as the time
	// axis — bit-identical at any Workers count (events are emitted
	// after each round's parallel evaluation, in candidate order).
	Trace *trace.Recorder
}

// WarmStart records one heuristic's objective value (or failure) under
// the search objective.
type WarmStart struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
	Err   string  `json:"err,omitempty"`
}

// SearchStats reports what one Place call did.
type SearchStats struct {
	// WarmStarts are the heuristic baselines, evaluated through the same
	// objective as every candidate.
	WarmStarts []WarmStart `json:"warm_starts"`
	// Steps counts objective evaluations (warm starts + candidates);
	// Rounds the annealing rounds; Accepted the Metropolis acceptances.
	Steps    int `json:"steps"`
	Rounds   int `json:"rounds"`
	Accepted int `json:"accepted"`
	// BestFrom names the origin of the returned layout: a heuristic, or
	// "anneal" when a searched candidate beat every warm start.
	BestFrom string `json:"best_from"`
	// BestScore is the returned layout's objective value.
	BestScore float64 `json:"best_score"`
	// Improved reports whether annealing strictly beat the best warm
	// start.
	Improved bool `json:"improved"`
}

// SearchPlacer is the annealing placer. Build it with NewSearchPlacer;
// it is bound to one (model, config, design) because it compiles
// candidates itself through the hoisted lowering prefix.
type SearchPlacer struct {
	low    *Lowered
	eval   Evaluator
	cached CachedEvaluator // eval, when it supports fingerprint probes
	opts   SearchOptions
	stats  SearchStats
}

// NewSearchPlacer binds the search to a model, architecture, design and
// objective. The model is lowered once here; every candidate placement
// reuses the prefix and pays only program assembly.
func NewSearchPlacer(model bnn.Network, cfg arch.Config, design arch.Design, eval Evaluator, opts SearchOptions) (*SearchPlacer, error) {
	if eval == nil {
		return nil, fmt.Errorf("compiler: search placer needs an evaluator (wire sim.PlacementEvaluator or sim.SetEvaluator)")
	}
	if opts.Steps < 0 {
		return nil, fmt.Errorf("compiler: search steps %d must be ≥ 0", opts.Steps)
	}
	if opts.Steps == 0 {
		opts.Steps = DefaultSearchSteps
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	lw, err := lower(model, cfg, design)
	if err != nil {
		return nil, err
	}
	sp := &SearchPlacer{low: lw, eval: eval, opts: opts}
	sp.cached, _ = eval.(CachedEvaluator)
	return sp, nil
}

// Name implements Placer.
func (sp *SearchPlacer) Name() string { return "search" }

// Exact implements Placer: the returned layout keeps the exactness of
// its best candidate (annealed layouts are always layout-exact; a
// winning greedy warm start keeps its average-hop program).
func (sp *SearchPlacer) Exact() bool { return true }

// Stats reports the last Place call's search trace.
func (sp *SearchPlacer) Stats() SearchStats { return sp.stats }

// scored is one evaluated candidate. Invalid decodes and infeasible
// compiles score -Inf and are never accepted or returned.
type scored struct {
	p     *Placement
	score float64
	valid bool
}

// Place implements Placer: simulated annealing over per-layer
// rectangles, warm-started from the heuristics, objective = the
// injected evaluator. The layers argument must be the demands of the
// bound model (CompileWith passes them through), and cfg the bound
// effective architecture.
func (sp *SearchPlacer) Place(layers []LayerDemand, cfg arch.Config, region Region) (*Placement, error) {
	if cfg != sp.low.cfg {
		return nil, fmt.Errorf("compiler: search placer is bound to another architecture config")
	}
	if len(layers) != len(sp.low.demands) {
		return nil, fmt.Errorf("compiler: search placer is bound to %s (%d layers), got %d layers",
			sp.low.ModelName, len(sp.low.demands), len(layers))
	}
	for i := range layers {
		if layers[i] != sp.low.demands[i] {
			return nil, fmt.Errorf("compiler: search placer is bound to %s; layer %d demand differs", sp.low.ModelName, i)
		}
	}
	st := SearchStats{BestScore: math.Inf(-1)}
	best := scored{score: math.Inf(-1)}
	str := newSearchTrace(sp.opts.Trace, sp.low.ModelName)

	// Warm starts: every heuristic that fits the region, scored through
	// the same objective as the candidates. The best one seeds the
	// annealing state AND floors the returned layout.
	for _, wp := range []Placer{GreedyPlacer{}, MeshPlacer{}, ShardPlacer{}} {
		p, err := wp.Place(sp.low.demands, cfg, region)
		if err != nil {
			st.WarmStarts = append(st.WarmStarts, WarmStart{Name: wp.Name(), Score: math.Inf(-1), Err: err.Error()})
			continue
		}
		s, err := sp.score(p, region)
		if err != nil {
			return nil, err
		}
		st.Steps++
		st.WarmStarts = append(st.WarmStarts, WarmStart{Name: wp.Name(), Score: s.score})
		str.warm(wp.Name(), st.Steps-1, s.score)
		if s.valid && s.score > best.score {
			best = s
			st.BestFrom = wp.Name()
			str.improved(st.Steps-1, s.score)
		}
	}
	if !best.valid {
		return nil, fmt.Errorf("compiler: search placer: no heuristic warm start fits region %s", region)
	}

	cur := encodeGenotype(best.p, cfg)
	curScore := best.score
	movable := movableIndices(cur)
	if len(movable) > 0 {
		prop := rand.New(rand.NewSource(sp.opts.Seed))
		acc := rand.New(rand.NewSource(sp.opts.Seed ^ 0x5851f42d4c957f2d))
		rounds := (sp.opts.Steps + searchRound - 1) / searchRound
		// Genotype memo for this Place call: decode and score are pure
		// functions of the genotype (region and cfg are fixed), so a
		// revisited genotype — clamped border shifts re-proposing the
		// incumbent, the walk retracing itself — reuses its result without
		// even decoding. The RNG schedule is untouched: proposals and
		// acceptance draws happen for every candidate regardless of hits.
		memo := map[string]scored{}
		cands := make([]genotype, searchRound)
		keys := make([]string, searchRound)
		results := make([]scored, searchRound)
		hit := make([]bool, searchRound)
		for round := 0; round < rounds; round++ {
			frac := 0.0
			if rounds > 1 {
				frac = float64(round) / float64(rounds-1)
			}
			temp := searchT0 * math.Pow(searchTEnd/searchT0, frac)
			// Misses are deduplicated within the round too (two mutations
			// can propose the same neighbor), then scored in parallel.
			miss := make(map[string]int, searchRound)
			var missCands []genotype
			for i := range cands {
				cands[i] = mutate(cur, movable, region, prop)
				keys[i] = genoKey(cands[i], movable)
				if s, ok := memo[keys[i]]; ok {
					results[i], hit[i] = s, true
					continue
				}
				hit[i] = false
				if _, ok := miss[keys[i]]; !ok {
					miss[keys[i]] = len(missCands)
					missCands = append(missCands, cands[i])
				}
			}
			missRes, err := infer.Map(sp.opts.Workers, len(missCands), func(_, i int) (scored, error) {
				p, derr := sp.decode(missCands[i], region, cfg)
				if derr != nil {
					return scored{score: math.Inf(-1)}, nil
				}
				return sp.score(p, region)
			})
			if err != nil {
				return nil, err
			}
			for i := range cands {
				if !hit[i] {
					results[i] = missRes[miss[keys[i]]]
					memo[keys[i]] = results[i]
				}
			}
			st.Rounds++
			st.Steps += searchRound
			for i, s := range results {
				step := st.Steps - searchRound + i
				// One acceptance draw per candidate, always consumed — the
				// RNG schedule never depends on validity or score.
				u := acc.Float64()
				if !s.valid {
					str.candidate(step, temp, s.score, false, false)
					continue
				}
				rel := (s.score - curScore) / math.Max(math.Abs(curScore), 1)
				accepted := rel >= 0 || u < math.Exp(rel/temp)
				str.candidate(step, temp, s.score, true, accepted)
				if s.score > best.score {
					best = s
					st.BestFrom = "anneal"
					st.Improved = true
					str.improved(step, s.score)
				}
				if accepted {
					cur, curScore = cands[i], s.score
					st.Accepted++
				}
			}
		}
	}
	out := *best.p
	out.Placer = "search"
	st.BestScore = best.score
	str.done(st)
	sp.stats = st
	return &out, nil
}

// score compiles one candidate layout through the hoisted prefix and
// prices it. Compile errors mean the candidate is infeasible (scored
// -Inf, never accepted); evaluator errors are real failures.
func (sp *SearchPlacer) score(p *Placement, region Region) (scored, error) {
	// A fingerprint the evaluator has already priced skips compilation
	// outright: the probe returns the memoized objective, which is by
	// contract exactly what compiling and scoring again would produce.
	if sp.cached != nil {
		if v, ok := sp.cached.CachedScore(sp.low.ModelName, sp.low.Design, p); ok {
			return scored{p: p, score: v, valid: true}, nil
		}
	}
	c, err := sp.low.compile(Options{Placer: fixedPlacer{p}, Region: &region})
	if err != nil {
		return scored{p: p, score: math.Inf(-1)}, nil
	}
	v, err := sp.eval.Score(c)
	if err != nil {
		return scored{}, err
	}
	return scored{p: p, score: v, valid: true}, nil
}

// fixedPlacer replays a precomputed placement through the compile
// assembly — the bridge from candidate layouts to priced programs.
type fixedPlacer struct{ p *Placement }

func (f fixedPlacer) Name() string { return f.p.Placer }
func (f fixedPlacer) Exact() bool  { return f.p.Exact }
func (f fixedPlacer) Place(_ []LayerDemand, _ arch.Config, _ Region) (*Placement, error) {
	return f.p, nil
}

// --- genotype --------------------------------------------------------------

// layerGene is one layer's searchable layout: a region-relative
// rectangle on one region-relative chip, of which the first `tiles`
// cells (row-major) are the shard footprint. Multi-shard layers from a
// warm start (cross-chip splits) are carried verbatim and not searched
// — the neighborhood moves whole rectangles, not shard boundaries.
type layerGene struct {
	name   string
	fixed  bool
	shards []Shard // verbatim when fixed; never mutated
	chip   int     // region-relative chip index
	x, y   int     // region-relative rect origin
	w, h   int     // rect dims
	tiles  int     // tiles taken from the rect, row-major
	vcores int
}

type genotype []layerGene

// genoKey packs the movable genes into a compact memo key. Fixed genes
// never change across candidates of one Place call and tile/vcore
// counts are layer constants, so the movable rectangles (chip, origin,
// dims) identify the genotype completely.
func genoKey(g genotype, movable []int) string {
	buf := make([]byte, 0, 12*len(movable))
	for _, i := range movable {
		buf = strconv.AppendInt(buf, int64(g[i].chip), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(g[i].x), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(g[i].y), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(g[i].w), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(g[i].h), 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

// movableIndices lists the genes the neighborhood moves may touch.
func movableIndices(g genotype) []int {
	var out []int
	for i := range g {
		if !g[i].fixed {
			out = append(out, i)
		}
	}
	return out
}

// encodeGenotype lifts a placement into the search representation:
// single-shard layers become their bounding rectangle (the decode may
// legally re-pack an L-shaped greedy span into the rect prefix — the
// candidate is re-scored either way), multi-shard layers are fixed.
func encodeGenotype(p *Placement, cfg arch.Config) genotype {
	w := cfg.MeshWidth()
	g := make(genotype, len(p.Layers))
	for i, lp := range p.Layers {
		gene := layerGene{name: lp.Name}
		if len(lp.Shards) != 1 {
			gene.fixed = true
			gene.shards = lp.Shards
		} else {
			sh := lp.Shards[0]
			minX, minY := math.MaxInt, math.MaxInt
			maxX, maxY := -1, -1
			for _, t := range sh.Tiles {
				x, y := t%w-p.Region.X0, t/w-p.Region.Y0
				minX, maxX = min(minX, x), max(maxX, x)
				minY, maxY = min(minY, y), max(maxY, y)
			}
			gene.chip = sh.Chip - p.Region.Chip
			gene.x, gene.y = minX, minY
			gene.w, gene.h = maxX-minX+1, maxY-minY+1
			gene.tiles = len(sh.Tiles)
			gene.vcores = sh.VCores
		}
		g[i] = gene
	}
	return g
}

// decode materializes a genotype as a layout-exact placement. Layer
// footprints may overlap — the pipeline engine models shared tiles as
// mutual exclusion, so overlap is a legal (if usually slow) layout the
// objective prices rather than a constraint violation. Rects that walk
// off the region or a partial mesh row are errors (scored -Inf).
func (sp *SearchPlacer) decode(g genotype, region Region, cfg arch.Config) (*Placement, error) {
	w := cfg.MeshWidth()
	p := &Placement{Placer: "search", Region: region, Exact: true,
		Layers: make([]LayerPlace, 0, len(g))}
	// One block of shard headers for the whole placement; the capped
	// three-index subslices keep a later append on one layer's Shards
	// from clobbering a neighbour's.
	shards := make([]Shard, 0, len(g))
	for _, gene := range g {
		if gene.fixed {
			p.Layers = append(p.Layers, LayerPlace{Name: gene.name, Shards: gene.shards})
			continue
		}
		if gene.x < 0 || gene.y < 0 || gene.w < 1 || gene.h < 1 ||
			gene.x+gene.w > region.W || gene.y+gene.h > region.H ||
			gene.chip < 0 || gene.chip >= region.Chips || gene.w*gene.h < gene.tiles {
			return nil, fmt.Errorf("compiler: search candidate rect for %s outside region %s", gene.name, region)
		}
		sh := Shard{Chip: region.Chip + gene.chip, VCores: gene.vcores}
		if gene.tiles > 0 {
			sh.Tiles = make([]int, 0, gene.tiles)
		}
		for i := 0; i < gene.tiles; i++ {
			x := gene.x + i%gene.w
			y := gene.y + i/gene.w
			t := (region.Y0+y)*w + region.X0 + x
			if t >= cfg.TilesPerNode {
				return nil, fmt.Errorf("compiler: search candidate for %s walks off the %d-tile chip", gene.name, cfg.TilesPerNode)
			}
			sh.Tiles = append(sh.Tiles, t)
		}
		shards = append(shards, sh)
		k := len(shards) - 1
		p.Layers = append(p.Layers, LayerPlace{Name: gene.name, Shards: shards[k : k+1 : k+1]})
	}
	return p, nil
}

// --- neighborhood moves ----------------------------------------------------

var shiftDirs = [8][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}, {1, 1}, {1, -1}, {-1, 1}, {-1, -1}}

// mutate proposes one neighbor: shift a layer's rectangle one step,
// reshape it (same tile count, new aspect), re-anchor it on a random
// chip/corner, or swap two layers' anchors. All draws come from the
// proposal RNG in a fixed order; out-of-range results clamp to the
// region, so a border shift may propose the incumbent itself — the
// evaluation cache absorbs the repeat.
func mutate(cur genotype, movable []int, region Region, rng *rand.Rand) genotype {
	g := append(genotype{}, cur...)
	kinds := 3
	if len(movable) >= 2 {
		kinds = 4
	}
	switch rng.Intn(kinds) {
	case 0: // shift
		i := movable[rng.Intn(len(movable))]
		d := shiftDirs[rng.Intn(len(shiftDirs))]
		g[i].x = clampInt(g[i].x+d[0], 0, region.W-g[i].w)
		g[i].y = clampInt(g[i].y+d[1], 0, region.H-g[i].h)
	case 1: // reshape: same tile count, new width from the valid set
		i := movable[rng.Intn(len(movable))]
		widths := make([]int, 0, min(g[i].tiles, region.W))
		for w := 1; w <= min(g[i].tiles, region.W); w++ {
			if (g[i].tiles+w-1)/w <= region.H {
				widths = append(widths, w)
			}
		}
		if len(widths) > 0 {
			g[i].w = widths[rng.Intn(len(widths))]
			g[i].h = (g[i].tiles + g[i].w - 1) / g[i].w
			g[i].x = clampInt(g[i].x, 0, region.W-g[i].w)
			g[i].y = clampInt(g[i].y, 0, region.H-g[i].h)
		}
	case 2: // re-anchor: teleport to a random chip and corner
		i := movable[rng.Intn(len(movable))]
		g[i].chip = rng.Intn(region.Chips)
		g[i].x = rng.Intn(region.W - g[i].w + 1)
		g[i].y = rng.Intn(region.H - g[i].h + 1)
	case 3: // swap two layers' anchors
		a := movable[rng.Intn(len(movable))]
		b := movable[rng.Intn(len(movable))]
		g[a].chip, g[b].chip = g[b].chip, g[a].chip
		g[a].x, g[b].x = g[b].x, g[a].x
		g[a].y, g[b].y = g[b].y, g[a].y
		g[a].x = clampInt(g[a].x, 0, region.W-g[a].w)
		g[a].y = clampInt(g[a].y, 0, region.H-g[a].h)
		g[b].x = clampInt(g[b].x, 0, region.W-g[b].w)
		g[b].y = clampInt(g[b].y, 0, region.H-g[b].h)
	}
	return g
}

func clampInt(v, lo, hi int) int {
	if hi < lo {
		return lo
	}
	return max(lo, min(v, hi))
}
