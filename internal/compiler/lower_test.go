package compiler

import (
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
)

// TestLowerCompileMatchesCompileWith pins the hoist contract: splitting
// compilation into Lower (per-model prefix) + Compile (per-placement
// assembly) is byte-identical to the one-shot CompileWith, for every
// zoo network × design × placer.
func TestLowerCompileMatchesCompileWith(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, name := range bnn.ZooNames {
		m := mustModel(t, name)
		for _, d := range arch.Designs() {
			lw, err := lower(m, cfg, d)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			for _, placer := range []Placer{GreedyPlacer{}, MeshPlacer{}, ShardPlacer{}} {
				opts := Options{Placer: placer}
				want, err := CompileWith(m, cfg, d, opts)
				if err != nil {
					continue // placer doesn't fit this design; same error either way
				}
				got, err := lw.compile(opts)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", name, d, placer.Name(), err)
				}
				if got.Program.String() != want.Program.String() {
					t.Fatalf("%s/%v/%s: hoisted program differs from fresh compile", name, d, placer.Name())
				}
				if got.VCoresUsed != want.VCoresUsed || got.WeightWrites != want.WeightWrites {
					t.Fatalf("%s/%v/%s: metadata differs", name, d, placer.Name())
				}
				if got.Placement.Fingerprint() != want.Placement.Fingerprint() {
					t.Fatalf("%s/%v/%s: placement differs", name, d, placer.Name())
				}
			}
		}
	}
}

// TestLoweredReuseIsPure: compiling MANY placements from one Lowered
// prefix must not cross-contaminate — exact placers mutate the layer
// programs (SEND rewrites, gather splices), so Compile must deep-copy.
// The shard corner case (TilesPerNode=4/Nodes=8 splits MLP-L across
// chips) splices extra gather SENDs, the strongest mutation.
func TestLoweredReuseIsPure(t *testing.T) {
	cfg := arch.DefaultConfig()
	cfg.TilesPerNode = 4
	cfg.Nodes = 8
	m := mustModel(t, "MLP-L")
	lw, err := lower(m, cfg, arch.EinsteinBarrier)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: shard (splices), greedy (no rewrite), shard again —
	// the two shard compiles and a fresh CompileWith must agree.
	first, err := lw.compile(Options{Placer: ShardPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lw.compile(Options{Placer: GreedyPlacer{}}); err != nil {
		t.Fatal(err)
	}
	second, err := lw.compile(Options{Placer: ShardPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Program.String() != second.Program.String() {
		t.Fatal("repeated shard compiles from one Lowered diverge — layer programs were mutated in place")
	}
	fresh, err := CompileWith(m, cfg, arch.EinsteinBarrier, Options{Placer: ShardPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Program.String() != fresh.Program.String() {
		t.Fatal("hoisted shard compile differs from fresh CompileWith")
	}
}
