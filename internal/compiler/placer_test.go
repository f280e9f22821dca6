package compiler

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/isa"
)

// TestGreedyCompileBitIdenticalToGolden pins the refactor's central
// contract: the greedy placer over the full fabric IS the seed
// compiler. The golden file was captured from the pre-placement-IR
// compiler (PR 4 tree) for every zoo network × registered design:
// program text, allocs, VCore count and weight writes must match byte
// for byte. (The golden's latency/energy lines are re-checked in
// internal/sim's golden tests; here we pin the compiler's own output.)
func TestGreedyCompileBitIdenticalToGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/compile_golden_pre_pr5.txt")
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.DefaultConfig()
	var got strings.Builder
	for _, m := range bnn.ZooArchs() {
		for _, d := range arch.Designs() {
			c, err := Compile(m, cfg, d)
			if err != nil {
				t.Fatalf("%s/%v: %v", m.Name(), d, err)
			}
			fmt.Fprintf(&got, "== %s/%v vcores=%d writes=%d\n", m.Name(), d, c.VCoresUsed, c.WeightWrites)
			for _, a := range c.Allocs {
				fmt.Fprintf(&got, "-- alloc %s kind=%s vcores=%d first=%d steps=%d\n",
					a.Name, a.Kind, a.VCores, a.FirstVCore, a.Steps)
			}
			got.WriteString(c.Program.String())
		}
	}
	// Strip the golden's latency/energy fields (owned by the sim tests)
	// so the comparison is compiler-only.
	var want strings.Builder
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if strings.HasPrefix(line, "== ") {
			if i := strings.Index(line, " latency="); i >= 0 {
				line = line[:i]
			}
		}
		want.WriteString(line)
		want.WriteByte('\n')
	}
	if got.String() != want.String() {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d differs:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length differs: got %d lines, want %d", len(gl), len(wl))
	}
}

// goldenRunMetrics exposes the golden's pinned latency/energy per
// model×design for the sim package's cross-check (parsed here so the
// format lives next to the file).
func goldenRunMetrics(t *testing.T) map[string][2]float64 {
	t.Helper()
	raw, err := os.ReadFile("testdata/compile_golden_pre_pr5.txt")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][2]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "== ") {
			continue
		}
		fields := strings.Fields(line[3:])
		var lat, en float64
		var key string
		key = fields[0]
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(f, "latency="); ok {
				lat, err = strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
			}
			if v, ok := strings.CutPrefix(f, "energy="); ok {
				en, err = strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		out[key] = [2]float64{lat, en}
	}
	return out
}

func TestGoldenFileParses(t *testing.T) {
	m := goldenRunMetrics(t)
	if len(m) < 18 { // 6 networks × ≥3 designs
		t.Fatalf("golden has %d run-metric rows", len(m))
	}
}

// TestGreedyPlacementMatchesAllocs: the greedy placement's tile
// footprint must equal the one the engine legacy-derived from
// FirstVCore/VCores — same spans, same sharing.
func TestGreedyPlacementMatchesAllocs(t *testing.T) {
	cfg := arch.DefaultConfig()
	per := cfg.ECoresPerTile * cfg.VCoresPerECore
	for _, name := range bnn.ZooNames {
		m := mustModel(t, name)
		c, err := Compile(m, cfg, arch.EinsteinBarrier)
		if err != nil {
			t.Fatal(err)
		}
		if c.Placement == nil {
			t.Fatal("greedy compile must attach a placement")
		}
		li := 0
		for _, a := range c.Allocs {
			if a.Kind == "shape" {
				continue
			}
			first := a.FirstVCore / per
			last := first
			if a.VCores > 0 {
				last = (a.FirstVCore + a.VCores - 1) / per
			}
			var want []int
			for g := first; g <= last; g++ {
				want = append(want, g)
			}
			got := c.Placement.GlobalTiles(li, cfg)
			if len(got) != len(want) {
				t.Fatalf("%s/%s: tiles %v, want %v", name, a.Name, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s/%s: tiles %v, want %v", name, a.Name, got, want)
				}
			}
			li++
		}
	}
}

// TestMeshPlacerDisjointCompactLayout: the locality-aware placer gives
// every layer a private footprint (no tile sharing) and its programs
// carry layout-exact hops with region-relative operands.
func TestMeshPlacerDisjointCompactLayout(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, name := range []string{"CNN-S", "CNN-L", "MLP-L"} {
		m := mustModel(t, name)
		c, err := CompileWith(m, cfg, arch.EinsteinBarrier, Options{Placer: MeshPlacer{}})
		if err != nil {
			t.Fatal(err)
		}
		if !c.Placement.Exact {
			t.Fatal("mesh placement must be layout-exact")
		}
		seen := map[int]string{}
		for li := range c.Placement.Layers {
			for _, g := range c.Placement.GlobalTiles(li, cfg) {
				if owner, ok := seen[g]; ok {
					t.Fatalf("%s: tile %d shared by %s and %s", name, g, owner, c.Placement.Layers[li].Name)
				}
				seen[g] = c.Placement.Layers[li].Name
			}
		}
		// Every SEND is stamped with a region-relative source.
		for _, in := range c.Program {
			if in.Op == isa.OpSend && in.Src == 0 {
				t.Fatalf("%s: placed SEND without src operand: %s", name, in)
			}
		}
	}
}

// TestShardPlacerSplitsAcrossChips: a layer bigger than one chip of its
// region is split, and the program gains inter-chip gather SENDs whose
// ChipHops carry the board-link distance.
func TestShardPlacerSplitsAcrossChips(t *testing.T) {
	cfg := arch.DefaultConfig()
	// Shrink the chips so MLP-L's big fc layers (≥5 tiles at 64
	// VCores/tile) exceed one 4-tile chip, with enough chips overall.
	cfg.TilesPerNode = 4
	cfg.Nodes = 8
	m := mustModel(t, "MLP-L")
	if _, err := CompileWith(m, cfg, arch.EinsteinBarrier, Options{Placer: MeshPlacer{}}); err == nil {
		t.Fatal("mesh placer should refuse a layer bigger than one chip")
	}
	c, err := CompileWith(m, cfg, arch.EinsteinBarrier, Options{Placer: ShardPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	sharded := 0
	for _, lp := range c.Placement.Layers {
		if len(lp.Shards) > 1 {
			sharded++
			chips := map[int]bool{}
			for _, sh := range lp.Shards {
				chips[sh.Chip] = true
			}
			if len(chips) < 2 {
				t.Fatalf("%s: %d shards all on one chip", lp.Name, len(lp.Shards))
			}
		}
	}
	if sharded == 0 {
		t.Fatal("no layer was sharded")
	}
	gathers := 0
	for _, in := range c.Program {
		if in.Op == isa.OpSend && strings.HasSuffix(in.Comment, "/gather") {
			gathers++
			if in.ChipHops < 1 {
				t.Fatalf("gather SEND without chip hops: %s", in)
			}
			if in.Src == 0 || in.Dst == 0 {
				t.Fatalf("gather SEND without region-relative operands: %s", in)
			}
		}
	}
	if gathers == 0 {
		t.Fatal("sharded compile emitted no gather SENDs")
	}
	// VCores are conserved across shards.
	for li, lp := range c.Placement.Layers {
		total := 0
		for _, sh := range lp.Shards {
			total += sh.VCores
		}
		var want int
		i := 0
		for _, a := range c.Allocs {
			if a.Kind == "shape" {
				continue
			}
			if i == li {
				want = a.VCores
				break
			}
			i++
		}
		if total != want {
			t.Fatalf("%s: shard VCores sum %d, alloc has %d", lp.Name, total, want)
		}
	}
}

// TestRegionRelativeRoundTrip: RelTile and ResolveTile invert each
// other over every tile of assorted regions.
func TestRegionRelativeRoundTrip(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, r := range []Region{
		fullFabric(cfg),
		{Chip: 1, Chips: 2, X0: 1, Y0: 2, W: 3, H: 2},
		{Chip: 3, Chips: 1, X0: 0, Y0: 0, W: 1, H: 1},
	} {
		if err := r.Validate(cfg); err != nil {
			t.Fatal(err)
		}
		for rel := 0; rel < r.Chips*r.W*r.H; rel++ {
			chip, tile, err := r.ResolveTile(rel, cfg)
			if err != nil {
				t.Fatal(err)
			}
			back, err := r.relTile(chip, tile, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if back != rel {
				t.Fatalf("region %v: rel %d → (%d,%d) → %d", r, rel, chip, tile, back)
			}
		}
	}
	if err := (Region{Chip: 3, Chips: 2, X0: 0, Y0: 0, W: 4, H: 4}).Validate(cfg); err == nil {
		t.Fatal("region past the last chip must be invalid")
	}
}

func TestParsePlacer(t *testing.T) {
	for _, name := range []string{"greedy", "mesh", "shard"} {
		p, err := ParsePlacer(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("ParsePlacer(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := ParsePlacer(""); err != nil || p.Name() != "greedy" {
		t.Fatalf("empty placer should default to greedy, got %v/%v", p, err)
	}
	// The search placer is model-bound: the name is reserved and the
	// error points the caller at the eval entry points that build it
	// instead of the generic unknown-placer message.
	if _, err := ParsePlacer("search"); err == nil ||
		!strings.Contains(err.Error(), "eval.Place") || !strings.Contains(err.Error(), "eval.CoLocate") ||
		!strings.Contains(err.Error(), "NewSearchPlacer") {
		t.Fatalf("ParsePlacer(search) = %v, want a pointer to eval.Place/eval.CoLocate", err)
	}
	// Unknown names list every valid placer so callers can self-correct.
	_, err := ParsePlacer("nope")
	if err == nil {
		t.Fatal("unknown placer must error")
	}
	for _, name := range PlacerNames {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-placer error %q does not list %q", err, name)
		}
	}
}

// heuristicPlacers are the one-shot placers ParsePlacer builds by name.
var heuristicPlacers = []Placer{GreedyPlacer{}, MeshPlacer{}, ShardPlacer{}}

// TestPlacementAcrossDesigns: every zoo network places under every
// heuristic on every paper design into a valid layout and a valid
// program whose SEND hops fit the mesh; layout-exact programs' final
// SEND egresses the logits to the host.
func TestPlacementAcrossDesigns(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, name := range bnn.ZooNames {
		m := mustModel(t, name)
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
			maxHops := 2 * (cfg.MeshWidth() - 1)
			for _, p := range heuristicPlacers {
				c, err := CompileWith(m, cfg, d, Options{Placer: p})
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", name, d, p.Name(), err)
				}
				if err := c.Placement.Validate(cfg); err != nil {
					t.Fatalf("%s/%v/%s: %v", name, d, p.Name(), err)
				}
				if err := c.Program.Validate(); err != nil {
					t.Fatalf("%s/%v/%s: program invalid: %v", name, d, p.Name(), err)
				}
				var last isa.Instruction
				for _, in := range c.Program {
					if in.Op != isa.OpSend {
						continue
					}
					if in.ChipHops == 0 && in.Hops > maxHops {
						t.Fatalf("%s/%v/%s: on-chip SEND with %d hops exceeds mesh diameter %d",
							name, d, p.Name(), in.Hops, maxHops)
					}
					last = in
				}
				if c.Placement.Exact && last.ChipHops != 1 {
					t.Fatalf("%s/%v/%s: final SEND must egress to the host", name, d, p.Name())
				}
			}
		}
	}
}

// TestPlacementSpansConsistent: every shard of every placed layer sits
// on a real chip and real tiles.
func TestPlacementSpansConsistent(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "MLP-M")
	for _, p := range heuristicPlacers {
		c, err := CompileWith(m, cfg, arch.TacitEPCM, Options{Placer: p})
		if err != nil {
			t.Fatal(err)
		}
		for _, lp := range c.Placement.Layers {
			for _, sh := range lp.Shards {
				if sh.Chip < 0 || sh.Chip >= cfg.Nodes {
					t.Fatalf("%s/%s: chip %d out of range", p.Name(), lp.Name, sh.Chip)
				}
				if len(sh.Tiles) == 0 {
					t.Fatalf("%s/%s: empty shard", p.Name(), lp.Name)
				}
				for _, tile := range sh.Tiles {
					if tile < 0 || tile >= cfg.TilesPerNode {
						t.Fatalf("%s/%s: tile %d out of range", p.Name(), lp.Name, tile)
					}
				}
			}
		}
	}
}

// TestPlacementLocalityBeatsWorstCase: the mesh placer keeps
// consecutive layers close, so its layout-exact SEND hops average well
// below the mesh diameter.
func TestPlacementLocalityBeatsWorstCase(t *testing.T) {
	cfg := arch.DefaultConfig()
	m := mustModel(t, "CNN-S")
	c, err := CompileWith(m, cfg, arch.TacitEPCM, Options{Placer: MeshPlacer{}})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Placement.Exact {
		t.Fatal("mesh placement must carry layout-exact hops")
	}
	hops, sends := 0, 0
	for _, in := range c.Program {
		if in.Op == isa.OpSend {
			hops += in.Hops
			sends++
		}
	}
	diameter := 2 * (cfg.MeshWidth() - 1)
	if avg := float64(hops) / float64(sends); avg > float64(diameter)/2 {
		t.Fatalf("average hops %.1f too high for a local layout", avg)
	}
}

func TestPlacementRejectsBadConfig(t *testing.T) {
	bad := arch.DefaultConfig()
	bad.Nodes = 0
	m := mustModel(t, "MLP-S")
	for _, p := range heuristicPlacers {
		if _, err := CompileWith(m, bad, arch.TacitEPCM, Options{Placer: p}); err == nil {
			t.Fatalf("%s: expected config error", p.Name())
		}
	}
}
