package compiler

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/noc"
)

// Multi-model co-location. CompileSet carves the tile fabric into
// disjoint regions — one per model — and compiles every model into its
// region with the requested placer. The resulting Programs carry
// region-relative tile operands, so the same model compiles to the same
// program wherever its region lands; only the placement differs. The
// pipeline engine (sim.NewEngineSet) schedules the programs against
// shared NoC links and chip-egress ports, which is where co-location
// interference becomes measurable.

// SetOptions parameterizes CompileSet.
type SetOptions struct {
	// Placer lays out every model; nil means GreedyPlacer. Models whose
	// layers exceed one chip of their region need the ShardPlacer.
	Placer Placer
}

// layerDemands lowers just far enough to size every VCore-owning layer
// (the placer's input) without assembling a program.
func layerDemands(model bnn.Network, cfg arch.Config, design arch.Design) ([]LayerDemand, error) {
	spec, err := design.Spec()
	if err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	cfg = spec.EffectiveArch(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	mesh := noc.DefaultConfig(cfg.MeshWidth())
	avgHops := int(mesh.AverageHops() + 0.5)
	k := cfg.EffectiveK(design)
	var out []LayerDemand
	for _, lc := range model.Costs() {
		var la LayerAlloc
		switch lc.Kind {
		case "binary":
			if _, la, err = lowerBinary(lc, cfg, spec, k, avgHops); err != nil {
				return nil, fmt.Errorf("compiler: %s/%s: %w", model.Name(), lc.Name, err)
			}
		case "fp":
			if _, la, err = lowerFP(lc, cfg, spec, k, avgHops); err != nil {
				return nil, fmt.Errorf("compiler: %s/%s: %w", model.Name(), lc.Name, err)
			}
		default:
			continue
		}
		out = append(out, demandOf(lc, la.VCores))
	}
	return out, nil
}

// usedRows returns how many mesh rows of the region's last chip the
// placement actually occupies, plus the number of chips it spans.
func usedExtent(p *Placement, cfg arch.Config) (chips, lastChipRows int) {
	w := cfg.MeshWidth()
	maxChip := p.Region.Chip
	rows := map[int]int{}
	for _, lp := range p.Layers {
		for _, sh := range lp.Shards {
			if sh.Chip > maxChip {
				maxChip = sh.Chip
			}
			for _, t := range sh.Tiles {
				if r := t/w + 1; r > rows[sh.Chip] {
					rows[sh.Chip] = r
				}
			}
		}
	}
	return maxChip - p.Region.Chip + 1, rows[maxChip]
}

// CompileSet co-locates models on one fabric: disjoint regions are
// carved chip by chip (horizontal shelf strips, so small models share a
// chip and contend for its mesh spine and egress port), each model is
// compiled into its region, and the per-model Compileds — placements
// attached — are returned in input order.
func CompileSet(models []bnn.Network, cfg arch.Config, design arch.Design, opts SetOptions) ([]*Compiled, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("compiler: CompileSet needs at least one model")
	}
	placer := opts.Placer
	if placer == nil {
		placer = GreedyPlacer{}
	}
	spec, err := design.Spec()
	if err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	ecfg := spec.EffectiveArch(cfg)
	if err := ecfg.Validate(); err != nil {
		return nil, err
	}
	w := ecfg.MeshWidth()
	chipH := ceilDiv(ecfg.TilesPerNode, w)

	out := make([]*Compiled, 0, len(models))
	chip, row := 0, 0 // carving cursor
	for _, m := range models {
		demands, err := layerDemands(m, cfg, design)
		if err != nil {
			return nil, err
		}
		// Candidate regions, most local first: the rest of the current
		// chip, a fresh chip, then all remaining chips (sharded models).
		var candidates []Region
		if chip < ecfg.Nodes && row > 0 && row < chipH {
			candidates = append(candidates, Region{Chip: chip, Chips: 1, X0: 0, Y0: row, W: w, H: chipH - row})
		}
		fresh := chip
		if row > 0 {
			fresh = chip + 1
		}
		if fresh < ecfg.Nodes {
			candidates = append(candidates, Region{Chip: fresh, Chips: 1, X0: 0, Y0: 0, W: w, H: chipH})
			if ecfg.Nodes-fresh > 1 {
				candidates = append(candidates, Region{Chip: fresh, Chips: ecfg.Nodes - fresh, X0: 0, Y0: 0, W: w, H: chipH})
			}
		}
		var placed *Placement
		var region Region
		for _, cand := range candidates {
			p, err := placer.Place(demands, ecfg, cand)
			if err != nil {
				continue
			}
			// Shrink the region to the rows actually used so the next
			// model starts right below, then re-place for consistent
			// region-relative ids.
			chips, lastRows := usedExtent(p, ecfg)
			shrunk := cand
			shrunk.Chips = chips
			if chips == 1 {
				shrunk.H = lastRows - shrunk.Y0
			}
			if p, err = placer.Place(demands, ecfg, shrunk); err != nil {
				// The shrunk region must still fit; if packing is
				// order-sensitive fall back to the full candidate.
				p, err = placer.Place(demands, ecfg, cand)
				if err != nil {
					continue
				}
				shrunk = cand
			}
			placed, region = p, shrunk
			break
		}
		if placed == nil {
			return nil, fmt.Errorf("compiler: fabric exhausted placing %s (cursor chip %d row %d): %d models need more than %d chips of %d tiles",
				m.Name(), chip, row, len(models), ecfg.Nodes, ecfg.TilesPerNode)
		}
		c, err := CompileWith(m, cfg, design, Options{Placer: placer, Region: &region})
		if err != nil {
			return nil, err
		}
		out = append(out, c)
		// Advance the cursor past the region.
		if region.Chips == 1 {
			chip, row = region.Chip, region.Y0+region.H
			if row >= chipH {
				chip, row = chip+1, 0
			}
		} else {
			chip, row = region.Chip+region.Chips, 0
		}
	}
	// Safety: regions must be pairwise disjoint (the carve guarantees
	// it; a placer walking outside its region would be a bug).
	owner := map[int]string{}
	for _, c := range out {
		for li := range c.Placement.Layers {
			for _, g := range c.Placement.GlobalTiles(li, ecfg) {
				if prev, taken := owner[g]; taken && prev != c.ModelName {
					return nil, fmt.Errorf("compiler: models %s and %s overlap on tile %d",
						prev, c.ModelName, g)
				}
				owner[g] = c.ModelName
			}
		}
	}
	return out, nil
}
