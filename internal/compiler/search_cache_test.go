package compiler

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"einsteinbarrier/internal/arch"
)

// fmtFingerprint is the reference implementation the strconv fast path
// must match byte for byte — the original fmt.Fprintf rendering.
func fmtFingerprint(p *Placement) string {
	var sb strings.Builder
	r := p.Region
	fmt.Fprintf(&sb, "r%d+%d:%d,%d,%dx%d", r.Chip, r.Chips, r.X0, r.Y0, r.W, r.H)
	if p.Exact {
		sb.WriteByte('!')
	}
	for _, lp := range p.Layers {
		sb.WriteByte('|')
		for si, sh := range lp.Shards {
			if si > 0 {
				sb.WriteByte('+')
			}
			fmt.Fprintf(&sb, "n%d@%d:", sh.Chip, sh.VCores)
			for ti, t := range sh.Tiles {
				if ti > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%d", t)
			}
		}
	}
	return sb.String()
}

// TestFingerprintFormatPinned: the cache key is a stability contract
// (evaluator memos and search caches key on it), so the fast rendering
// must reproduce the fmt-based format exactly — including multi-shard
// and multi-chip layouts.
func TestFingerprintFormatPinned(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, model := range []string{"CNN-S", "CNN-L", "MLP-L"} {
		for _, placer := range []Placer{GreedyPlacer{}, MeshPlacer{}, ShardPlacer{}} {
			m := mustModel(t, model)
			c, err := CompileWith(m, cfg, arch.EinsteinBarrier, Options{Placer: placer})
			if err != nil {
				t.Fatal(err)
			}
			got, want := c.Placement.Fingerprint(), fmtFingerprint(c.Placement)
			if got != want {
				t.Fatalf("%s/%s: fingerprint %q != reference %q", model, placer.Name(), got, want)
			}
		}
	}
	// Hand-built corner: empty shard tile list, zero-value region.
	p := &Placement{Layers: []LayerPlace{{Name: "x", Shards: []Shard{{Chip: 3, VCores: 7}}}}}
	if got, want := p.Fingerprint(), fmtFingerprint(p); got != want {
		t.Fatalf("corner fingerprint %q != reference %q", got, want)
	}
}

// countingEvaluator wraps hopEvaluator and counts objective computes —
// the probe-visible effect of the genotype memo.
type countingEvaluator struct {
	mu     sync.Mutex
	scores int
}

func (e *countingEvaluator) Score(c *Compiled) (float64, error) {
	e.mu.Lock()
	e.scores++
	e.mu.Unlock()
	return hopEvaluator{}.Score(c)
}

// memoEvaluator additionally implements CachedEvaluator over a
// fingerprint memo — the sim evaluators' shape, sim-free.
type memoEvaluator struct {
	countingEvaluator
	memo sync.Map // model/design/fingerprint → float64
}

func (e *memoEvaluator) Score(c *Compiled) (float64, error) {
	v, err := e.countingEvaluator.Score(c)
	if err == nil {
		e.memo.Store(c.ModelName+"/"+c.Design.String()+"/"+c.Placement.Fingerprint(), v)
	}
	return v, err
}

func (e *memoEvaluator) CachedScore(model string, design arch.Design, p *Placement) (float64, bool) {
	v, ok := e.memo.Load(model + "/" + design.String() + "/" + p.Fingerprint())
	if !ok {
		return 0, false
	}
	return v.(float64), true
}

// TestSearchCachingBitIdentical: the genotype memo and the
// CachedEvaluator fast path change how many times the objective runs,
// never what the search returns — placement, stats and trajectory are
// bit-identical to the uncached search, at any worker count.
func TestSearchCachingBitIdentical(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "CNN-S")
	region := fullFabric(cfg)

	place := func(ev Evaluator, workers int) (*Placement, SearchStats) {
		sp, err := NewSearchPlacer(m, cfg, arch.EinsteinBarrier, ev, SearchOptions{Steps: 96, Seed: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := sp.Place(sp.low.demands, cfg, region)
		if err != nil {
			t.Fatal(err)
		}
		return p, sp.Stats()
	}

	plain := &countingEvaluator{}
	wantP, wantSt := place(plain, 1)
	for _, workers := range []int{1, 4} {
		cached := &memoEvaluator{}
		gotP, gotSt := place(cached, workers)
		if gotP.Fingerprint() != wantP.Fingerprint() {
			t.Fatalf("workers=%d: cached search returned a different layout", workers)
		}
		if gotSt.Steps != wantSt.Steps || gotSt.Rounds != wantSt.Rounds ||
			gotSt.Accepted != wantSt.Accepted || gotSt.BestScore != wantSt.BestScore ||
			gotSt.BestFrom != wantSt.BestFrom || gotSt.Improved != wantSt.Improved {
			t.Fatalf("workers=%d: stats diverged: %+v vs %+v", workers, gotSt, wantSt)
		}
		// The caches must actually save work: the walk revisits layouts
		// (clamped border shifts alone guarantee repeats at this budget).
		if cached.scores >= plain.scores {
			t.Fatalf("workers=%d: cached evaluator computed %d ≥ uncached %d", workers, cached.scores, plain.scores)
		}
	}
	// The genotype memo alone (no CachedEvaluator) must also save work:
	// fewer objective computes than objective steps.
	if plain.scores >= wantSt.Steps {
		t.Fatalf("genotype memo saved nothing: %d computes for %d steps", plain.scores, wantSt.Steps)
	}
}
