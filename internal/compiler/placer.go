package compiler

import (
	"fmt"
	"strconv"
	"strings"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/noc"
)

// Placement IR. The seed compiler lowered one model onto one chip with
// a greedy sequential VCore counter; the types here make the physical
// layout an explicit, inspectable artifact instead. A Region is a
// rectangular sub-grid of the tile mesh (optionally repeated across
// consecutive chips); a Placement assigns every VCore-owning layer a
// set of Shards (tile footprints) inside its region; a Placer is the
// pluggable strategy that produces the assignment. CompileWith threads
// a placement through lowering, CompileSet carves disjoint regions so
// several models co-locate on one fabric, and the pipeline engine
// (internal/sim) resolves region-relative tiles back to physical ones
// at simulation time.

// Region is a rectangular tile sub-grid: the X0..X0+W-1 × Y0..Y0+H-1
// rectangle of the per-chip mesh, repeated on Chips consecutive chips
// starting at Chip. Single-chip regions have Chips == 1; only sharded
// placements span chips.
type Region struct {
	Chip, Chips  int
	X0, Y0, W, H int
}

// fullFabric is the region covering every tile of every chip — the
// default placement target of a single-model compile.
func fullFabric(cfg arch.Config) Region {
	w := cfg.MeshWidth()
	return Region{Chip: 0, Chips: cfg.Nodes, X0: 0, Y0: 0, W: w, H: ceilDiv(cfg.TilesPerNode, w)}
}

// Validate checks the region against the fabric geometry.
func (r Region) Validate(cfg arch.Config) error {
	w := cfg.MeshWidth()
	switch {
	case r.Chips < 1 || r.Chip < 0 || r.Chip+r.Chips > cfg.Nodes:
		return fmt.Errorf("compiler: region chips [%d,%d) outside fabric of %d", r.Chip, r.Chip+r.Chips, cfg.Nodes)
	case r.W < 1 || r.H < 1 || r.X0 < 0 || r.Y0 < 0 || r.X0+r.W > w:
		return fmt.Errorf("compiler: region rect %+v outside %d-wide mesh", r, w)
	case r.Y0*w+r.X0 >= cfg.TilesPerNode:
		return fmt.Errorf("compiler: region origin (%d,%d) outside the %d tiles of a chip", r.X0, r.Y0, cfg.TilesPerNode)
	}
	return nil
}

// relTile maps a (chip, node-local tile) pair to the region-relative
// tile id the ISA's SEND Src/Dst operands carry (0-based; the operands
// store 1+id so that 0 stays "unplaced").
func (r Region) relTile(chip, tile int, cfg arch.Config) (int, error) {
	w := cfg.MeshWidth()
	x, y := tile%w, tile/w
	if chip < r.Chip || chip >= r.Chip+r.Chips ||
		x < r.X0 || x >= r.X0+r.W || y < r.Y0 || y >= r.Y0+r.H {
		return 0, fmt.Errorf("compiler: tile n%d:%d outside region %+v", chip, tile, r)
	}
	return (chip-r.Chip)*(r.W*r.H) + (y-r.Y0)*r.W + (x - r.X0), nil
}

// ResolveTile inverts relTile: region-relative id → (chip, node-local
// tile) — how a consumer of a region-relative program (the SEND
// src=/dst= operands) maps tile ids back to physical tiles. The
// simulator schedules from Compiled.Placement directly, so this is the
// inspection/tooling path, exercised by the round-trip tests.
func (r Region) ResolveTile(rel int, cfg arch.Config) (chip, tile int, err error) {
	if rel < 0 || rel >= r.Chips*r.W*r.H {
		return 0, 0, fmt.Errorf("compiler: region-relative tile %d outside region %+v", rel, r)
	}
	per := r.W * r.H
	chip = r.Chip + rel/per
	rel %= per
	x, y := r.X0+rel%r.W, r.Y0+rel/r.W
	tile = y*cfg.MeshWidth() + x
	if tile >= cfg.TilesPerNode {
		return 0, 0, fmt.Errorf("compiler: region-relative tile resolves to %d, chip has %d tiles", tile, cfg.TilesPerNode)
	}
	return chip, tile, nil
}

// String renders "n0-3 [0,0 4x4]" style.
func (r Region) String() string {
	chips := fmt.Sprintf("n%d", r.Chip)
	if r.Chips > 1 {
		chips = fmt.Sprintf("n%d-%d", r.Chip, r.Chip+r.Chips-1)
	}
	return fmt.Sprintf("%s [%d,%d %dx%d]", chips, r.X0, r.Y0, r.W, r.H)
}

// Shard is one contiguous piece of a layer's tile footprint on one
// chip. Tiles holds node-local tile ids in layout order; the first is
// the shard's anchor (where partial results collect and the output
// transfer originates). A layer has one shard unless the ShardPlacer
// had to split it across chips.
type Shard struct {
	Chip   int
	Tiles  []int
	VCores int
}

// LayerPlace is the placed footprint of one VCore-owning layer.
type LayerPlace struct {
	Name   string
	Shards []Shard
}

// Anchor returns the primary shard's anchor (chip, node-local tile).
func (lp LayerPlace) Anchor() (chip, tile int) {
	return lp.Shards[0].Chip, lp.Shards[0].Tiles[0]
}

// Placement maps a model's layers onto a region of the tile fabric.
type Placement struct {
	// Placer names the strategy that produced the layout.
	Placer string
	// Region is the fabric slice the model owns; co-located models have
	// disjoint regions.
	Region Region
	// Exact reports whether the program's SEND hop counts were rewritten
	// from this layout (MeshPlacer, ShardPlacer). The greedy placer
	// keeps the allocator's average-hop estimate so its programs stay
	// bit-identical to the legacy compiler; its placement still drives
	// the pipeline engine's contention model.
	Exact bool
	// Layers has one entry per VCore-owning layer, in program order.
	Layers []LayerPlace
}

// Validate checks structural invariants: shards inside the region, no
// empty shards.
func (p *Placement) Validate(cfg arch.Config) error {
	if err := p.Region.Validate(cfg); err != nil {
		return err
	}
	for _, lp := range p.Layers {
		if len(lp.Shards) == 0 {
			return fmt.Errorf("compiler: layer %s placed with no shards", lp.Name)
		}
		for _, sh := range lp.Shards {
			if len(sh.Tiles) == 0 {
				return fmt.Errorf("compiler: layer %s has an empty shard", lp.Name)
			}
			for _, t := range sh.Tiles {
				if _, err := p.Region.relTile(sh.Chip, t, cfg); err != nil {
					return fmt.Errorf("compiler: layer %s: %w", lp.Name, err)
				}
			}
		}
	}
	return nil
}

// GlobalTiles returns layer li's footprint as global tile ids
// (chip·TilesPerNode + local), deduplicated and in layout order — the
// contention resources the pipeline engine charges.
func (p *Placement) GlobalTiles(li int, cfg arch.Config) []int {
	var out []int
	seen := map[int]bool{}
	for _, sh := range p.Layers[li].Shards {
		for _, t := range sh.Tiles {
			g := sh.Chip*cfg.TilesPerNode + t
			if !seen[g] {
				seen[g] = true
				out = append(out, g)
			}
		}
	}
	return out
}

// TotalTiles is the distinct tile count the placement occupies.
func (p *Placement) TotalTiles(cfg arch.Config) int {
	seen := map[int]bool{}
	for li := range p.Layers {
		for _, g := range p.GlobalTiles(li, cfg) {
			seen[g] = true
		}
	}
	return len(seen)
}

// Fingerprint returns the canonical cache key of the layout: region,
// exactness, and every layer's shard assignment (chip, VCores, tiles)
// in program order. Two placements with equal fingerprints compile to
// identical programs for the same Lowered model, so engine-priced
// evaluations can be memoized on it (sim.PlacementEvaluator — the
// serve.Pricer batch-size memoization pattern generalized to layouts).
// The placer name is deliberately excluded: a mesh layout replayed by
// the search placer is the same physical layout.
func (p *Placement) Fingerprint() string {
	// Fingerprinting runs once per candidate inside placement search —
	// assembled with strconv appends into one buffer (no fmt verbs, one
	// final allocation). The format is pinned byte-for-byte by
	// TestFingerprintFormatPinned.
	r := p.Region
	n := 24
	for _, lp := range p.Layers {
		n += 1 + len(lp.Shards)*8
		for _, sh := range lp.Shards {
			n += 4 * len(sh.Tiles)
		}
	}
	buf := make([]byte, 0, n)
	buf = append(buf, 'r')
	buf = strconv.AppendInt(buf, int64(r.Chip), 10)
	buf = append(buf, '+')
	buf = strconv.AppendInt(buf, int64(r.Chips), 10)
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, int64(r.X0), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.Y0), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(r.W), 10)
	buf = append(buf, 'x')
	buf = strconv.AppendInt(buf, int64(r.H), 10)
	if p.Exact {
		buf = append(buf, '!')
	}
	for _, lp := range p.Layers {
		buf = append(buf, '|')
		for si, sh := range lp.Shards {
			if si > 0 {
				buf = append(buf, '+')
			}
			buf = append(buf, 'n')
			buf = strconv.AppendInt(buf, int64(sh.Chip), 10)
			buf = append(buf, '@')
			buf = strconv.AppendInt(buf, int64(sh.VCores), 10)
			buf = append(buf, ':')
			for ti, t := range sh.Tiles {
				if ti > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(t), 10)
			}
		}
	}
	return string(buf)
}

// String renders one line per layer.
func (p *Placement) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "placement %s region %s exact=%v\n", p.Placer, p.Region, p.Exact)
	for _, lp := range p.Layers {
		fmt.Fprintf(&sb, "  %-14s", lp.Name)
		for _, sh := range lp.Shards {
			fmt.Fprintf(&sb, " n%d:%v(%d vcores)", sh.Chip, sh.Tiles, sh.VCores)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LayerDemand is one VCore-owning layer's resource demand, the placer's
// input.
type LayerDemand struct {
	Name   string
	VCores int
	// Bytes is the layer's output activation traffic (SEND sizing).
	Bytes int64
	// PartialBytes is the cross-shard gather traffic when the layer is
	// split: 16-bit partial sums instead of 1-bit activations.
	PartialBytes int64
}

// Placer assigns layers to tiles inside a region. Implementations must
// be deterministic: same demands, same config, same region, same
// placement.
type Placer interface {
	// Name is the registry/CLI identifier.
	Name() string
	// Exact reports whether programs placed by this placer carry
	// layout-exact SEND hop counts (vs the allocator's average-hop
	// estimate).
	Exact() bool
	// Place lays the layers out. Layers arrive in program order.
	Place(layers []LayerDemand, cfg arch.Config, region Region) (*Placement, error)
}

// ParsePlacer resolves a heuristic placer name. The search placer
// cannot be built from a bare name — it is bound to one model and an
// engine-backed evaluator — so "search" gets a pointer to the eval
// entry points that build it instead of the generic unknown-placer
// error.
func ParsePlacer(name string) (Placer, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "greedy":
		return GreedyPlacer{}, nil
	case "mesh":
		return MeshPlacer{}, nil
	case "shard":
		return ShardPlacer{}, nil
	case "search":
		return nil, fmt.Errorf("compiler: the search placer is model-bound — place by name with eval.Place or eval.CoLocate, which build NewSearchPlacer over an engine evaluator")
	}
	return nil, fmt.Errorf("compiler: unknown placer %q (have %s)", name, strings.Join(PlacerNames, ", "))
}

// PlacerNames lists the built-in placers (heuristics plus the
// annealing search placer, which needs NewSearchPlacer).
var PlacerNames = []string{"greedy", "mesh", "shard", "search"}

// vcoresPerTileOf returns the VCore capacity of one tile.
func vcoresPerTileOf(cfg arch.Config) int { return cfg.ECoresPerTile * cfg.VCoresPerECore }

// --- greedy first-fit ----------------------------------------------------

// GreedyPlacer is the seed compiler's layout: a sequential VCore
// counter over the region's tiles in row-major order, consecutive
// layers packed back to back (and sharing boundary tiles). On the full
// fabric it reproduces the legacy flat allocation exactly — programs,
// allocs and Fig. 7/8 metrics are bit-identical to the pre-placement
// compiler, pinned by the golden tests.
type GreedyPlacer struct{}

// Name implements Placer.
func (GreedyPlacer) Name() string { return "greedy" }

// Exact implements Placer: greedy programs keep the average-hop
// estimate.
func (GreedyPlacer) Exact() bool { return false }

// regionTileOrder lists the region's valid tiles in allocation order:
// chip by chip, row-major within the rectangle.
func regionTileOrder(r Region, cfg arch.Config) [][2]int {
	w := cfg.MeshWidth()
	var out [][2]int
	for c := r.Chip; c < r.Chip+r.Chips; c++ {
		for y := r.Y0; y < r.Y0+r.H; y++ {
			for x := r.X0; x < r.X0+r.W; x++ {
				if t := y*w + x; t < cfg.TilesPerNode {
					out = append(out, [2]int{c, t})
				}
			}
		}
	}
	return out
}

// Place implements Placer.
func (GreedyPlacer) Place(layers []LayerDemand, cfg arch.Config, region Region) (*Placement, error) {
	order := regionTileOrder(region, cfg)
	per := vcoresPerTileOf(cfg)
	capacity := len(order) * per
	p := &Placement{Placer: "greedy", Region: region}
	next := 0
	for _, ld := range layers {
		first := next
		next += ld.VCores
		if next > capacity {
			return nil, fmt.Errorf("compiler: greedy placement needs %d VCores, region %s has %d", next, region, capacity)
		}
		firstTile := first / per
		lastTile := firstTile
		if ld.VCores > 0 {
			lastTile = (first + ld.VCores - 1) / per
		}
		// One shard per chip the span touches, tiles in allocation order.
		var shards []Shard
		for ti := firstTile; ti <= lastTile; ti++ {
			chip, tile := order[ti][0], order[ti][1]
			if n := len(shards); n > 0 && shards[n-1].Chip == chip {
				shards[n-1].Tiles = append(shards[n-1].Tiles, tile)
			} else {
				shards = append(shards, Shard{Chip: chip, Tiles: []int{tile}})
			}
		}
		shards[0].VCores = ld.VCores
		p.Layers = append(p.Layers, LayerPlace{Name: ld.Name, Shards: shards})
	}
	return p, nil
}

// --- locality-aware mesh packing -----------------------------------------

// MeshPlacer packs each layer's tiles into a compact sub-rectangle
// (core.CompactRect) and shelf-packs the rectangles through the region,
// giving every layer a private near-square footprint. Versus greedy
// this trades tile density for two wins the pipeline engine can
// measure: no tile sharing between stages (stages pipeline instead of
// mutually excluding) and shorter, less-overlapping XY routes (lower
// LinkWaitNs). Programs carry layout-exact SEND hops.
type MeshPlacer struct{}

// Name implements Placer.
func (MeshPlacer) Name() string { return "mesh" }

// Exact implements Placer.
func (MeshPlacer) Exact() bool { return true }

// Place implements Placer.
func (MeshPlacer) Place(layers []LayerDemand, cfg arch.Config, region Region) (*Placement, error) {
	p, err := shelfPlace("mesh", layers, cfg, region, false)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// --- cross-chip sharding -------------------------------------------------

// ShardPlacer is MeshPlacer plus chip splitting: a layer whose
// footprint exceeds the tiles remaining on the current chip is split
// into per-chip shards, and the compiler emits inter-chip gather SENDs
// (partial sums travel ChipDistance board links to the primary shard).
// This is how models bigger than one chip — or co-located into
// chip-fraction regions — keep compiling instead of erroring.
type ShardPlacer struct{}

// Name implements Placer.
func (ShardPlacer) Name() string { return "shard" }

// Exact implements Placer.
func (ShardPlacer) Exact() bool { return true }

// Place implements Placer.
func (ShardPlacer) Place(layers []LayerDemand, cfg arch.Config, region Region) (*Placement, error) {
	return shelfPlace("shard", layers, cfg, region, true)
}

// shelfPlace is the shared rectangle packer: layers become compact
// rects laid left-to-right on shelves, shelves stack down the region,
// full regions spill to the next chip. With shard=false a layer must
// fit one chip; with shard=true it splits at chip boundaries.
func shelfPlace(name string, layers []LayerDemand, cfg arch.Config, region Region, shard bool) (*Placement, error) {
	if err := region.Validate(cfg); err != nil {
		return nil, err
	}
	per := vcoresPerTileOf(cfg)
	w := cfg.MeshWidth()
	p := &Placement{Placer: name, Region: region, Exact: true}
	chip := 0   // region-relative chip index
	shelfY := 0 // top row of the current shelf, region-relative
	shelfX := 0 // next free column on the shelf
	shelfH := 0 // height of the current shelf
	chipTiles := func(c int) bool { return c < region.Chips }
	// tilesOf collects the row-major tiles of a rect at (x0,y0), w0×h0,
	// clipped to `take` tiles (the rect may over-cover the demand).
	tilesOf := func(c, x0, y0, w0, h0, take int) (Shard, error) {
		sh := Shard{Chip: region.Chip + c}
		for y := y0; y < y0+h0 && take > 0; y++ {
			for x := x0; x < x0+w0 && take > 0; x++ {
				t := (region.Y0+y)*w + region.X0 + x
				if t >= cfg.TilesPerNode {
					return sh, fmt.Errorf("compiler: %s placement walks off the %d-tile chip", name, cfg.TilesPerNode)
				}
				sh.Tiles = append(sh.Tiles, t)
				take--
			}
		}
		return sh, nil
	}
	for _, ld := range layers {
		tiles := ceilDiv(max(ld.VCores, 1), per)
		var shards []Shard
		remaining := tiles
		vcLeft := ld.VCores
		for remaining > 0 {
			if !chipTiles(chip) {
				return nil, fmt.Errorf("compiler: %s placement: layer %s needs %d more tiles, region %s exhausted",
					name, ld.Name, remaining, region)
			}
			rw, rh := core.CompactRect(remaining, region.W)
			// Start a new shelf if the rect does not fit beside the
			// previous one.
			if shelfX+rw > region.W || rh > region.H-shelfY && shelfX > 0 {
				shelfY += shelfH
				shelfX, shelfH = 0, 0
			}
			rowsLeft := region.H - shelfY
			if rowsLeft <= 0 {
				chip, shelfY, shelfX, shelfH = chip+1, 0, 0, 0
				continue
			}
			if rh > rowsLeft {
				if !shard {
					if shelfY == 0 && shelfX == 0 {
						return nil, fmt.Errorf("compiler: layer %s needs %d tiles, one chip of region %s holds %d (use the shard placer)",
							ld.Name, tiles, region, region.W*region.H)
					}
					// Retry on a fresh chip before giving up.
					chip, shelfY, shelfX, shelfH = chip+1, 0, 0, 0
					continue
				}
				rh = rowsLeft
			}
			take := min(remaining, rw*rh)
			sh, err := tilesOf(chip, shelfX, shelfY, rw, rh, take)
			if err != nil {
				return nil, err
			}
			vc := min(vcLeft, take*per)
			sh.VCores = vc
			vcLeft -= vc
			shards = append(shards, sh)
			remaining -= take
			shelfX += rw
			shelfH = max(shelfH, rh)
			if remaining > 0 {
				// The split continues on the next chip.
				chip, shelfY, shelfX, shelfH = chip+1, 0, 0, 0
			}
		}
		// The primary shard carries any rounding remainder so VCores sum
		// exactly.
		shards[0].VCores += vcLeft
		p.Layers = append(p.Layers, LayerPlace{Name: ld.Name, Shards: shards})
	}
	return p, nil
}

// --- placement-aware routing ---------------------------------------------

// routeHops prices one placed transfer: XY hops between tiles on one
// chip; cross-chip transfers drain through the egress corner, cross
// ChipDistance board links, and fan out from the ingress corner. The
// compiler stamps these on SENDs of layout-exact placements, and the
// pipeline engine uses the same model for link occupancy.
func routeHops(mesh noc.Config, cfg arch.Config, srcChip, srcTile, dstChip, dstTile int) (hops, chipHops int, err error) {
	if srcChip == dstChip {
		h, err := mesh.Hops(srcTile, dstTile)
		return h, 0, err
	}
	out, err := mesh.Hops(srcTile, mesh.EgressTile())
	if err != nil {
		return 0, 0, err
	}
	in, err := mesh.Hops(mesh.EgressTile(), dstTile)
	if err != nil {
		return 0, 0, err
	}
	return out + in, mesh.ChipDistance(srcChip, dstChip), nil
}
