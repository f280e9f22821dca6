// Package compiler lowers a BNN model onto the EinsteinBarrier
// architecture: it plans the crossbar tiling of every layer (TacitMap
// or CustBinaryMap depending on the target design), allocates VCores,
// estimates the NoC traffic between consecutive layers, and emits the
// macro-op instruction stream (internal/isa) the simulator executes.
//
// It plays the role of the paper's "heavily extended version of the
// PUMA architecture and compiler" (§V-A).
package compiler

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/isa"
	"einsteinbarrier/internal/noc"
)

// LayerAlloc records where one layer lives and what it costs.
type LayerAlloc struct {
	// Name echoes the layer.
	Name string
	// Kind is "binary", "fp" or "shape".
	Kind string
	// VCores is the number of crossbars the layer occupies (0 for
	// shape layers).
	VCores int
	// FirstVCore is the flat index of the first allocated crossbar.
	FirstVCore int
	// Steps is the critical-path macro-step count per inference.
	Steps int64
}

// Compiled is the result of lowering one model for one design.
type Compiled struct {
	// Model and Design echo the inputs.
	ModelName string
	Design    arch.Design
	// Program is the executable instruction stream.
	Program isa.Program
	// Allocs has one entry per model layer.
	Allocs []LayerAlloc
	// VCoresUsed is the total crossbar count allocated.
	VCoresUsed int
	// WeightWrites counts device programming operations at load time.
	WeightWrites int64
	// Placement is the physical layout the placer chose (see placer.go).
	// The pipeline engine resolves region-relative tiles through it.
	Placement *Placement
}

// Options parameterizes CompileWith.
type Options struct {
	// Placer chooses the layout strategy; nil means GreedyPlacer (the
	// legacy flat allocation, bit-identical to the seed compiler).
	Placer Placer
	// Region restricts the placement to a fabric slice; nil means the
	// full fabric. CompileSet carves disjoint regions through this.
	Region *Region
}

// Compile lowers model onto cfg for the given design, resolved through
// the arch design registry (mapping strategy, WDM capability, cell
// density and architecture hooks all come from the registered spec).
// It uses the greedy placer over the full fabric — the seed compiler's
// exact layout and program.
func Compile(model bnn.Network, cfg arch.Config, design arch.Design) (*Compiled, error) {
	return CompileWith(model, cfg, design, Options{})
}

// CompileWith lowers model with an explicit placement strategy. Layout-
// exact placers (MeshPlacer, ShardPlacer) rewrite SEND hop counts from
// the placement and stamp region-relative Src/Dst tile operands;
// sharded layers additionally gain inter-chip gather SENDs. The greedy
// placer keeps the allocator's average-hop estimate, so its programs
// are bit-identical to Compile's.
//
// CompileWith is lower + Lowered.compile: callers that compile one
// model under many placements (the search placer) hoist the lowering
// prefix with lower and pay only the assembly per placement.
func CompileWith(model bnn.Network, cfg arch.Config, design arch.Design, opts Options) (*Compiled, error) {
	lw, err := lower(model, cfg, design)
	if err != nil {
		return nil, err
	}
	return lw.compile(opts)
}

// demandOf sizes one VCore-owning layer for the placer: the output
// activation traffic and the cross-shard gather traffic (16-bit partial
// sums, not 1-bit activations). The single source of these formulas —
// CompileWith and CompileSet's dry-run sizing both go through it.
func demandOf(lc bnn.LayerCost, vcores int) LayerDemand {
	return LayerDemand{
		Name:         lc.Name,
		VCores:       vcores,
		Bytes:        max(lc.ActivationBytes, 1),
		PartialBytes: 2 * int64(lc.Work.N) * int64(max(lc.Work.Positions, 1)),
	}
}

// applyPlacement rewrites each layer's trailing SEND with layout-exact
// hop counts and region-relative Src/Dst operands, and splices in the
// inter-chip gather SENDs of sharded layers (partial sums from every
// secondary shard to the primary anchor, emitted before the layer's
// output transfer).
func applyPlacement(layerProgs []isa.Program, demands []LayerDemand, pl *Placement, cfg arch.Config, mesh noc.Config) error {
	rel := func(chip, tile int) (int, error) {
		r, err := pl.Region.relTile(chip, tile, cfg)
		return r + 1, err
	}
	for li := range layerProgs {
		lp := pl.Layers[li]
		srcChip, srcTile := lp.Anchor()
		srcRel, err := rel(srcChip, srcTile)
		if err != nil {
			return err
		}
		sendIdx := -1
		for i, in := range layerProgs[li] {
			if in.Op == isa.OpSend {
				sendIdx = i
			}
		}
		if sendIdx < 0 {
			return fmt.Errorf("compiler: placed layer %s has no SEND", lp.Name)
		}
		send := &layerProgs[li][sendIdx]
		send.Src = srcRel
		if li+1 < len(pl.Layers) {
			dstChip, dstTile := pl.Layers[li+1].Anchor()
			hops, chipHops, err := routeHops(mesh, cfg, srcChip, srcTile, dstChip, dstTile)
			if err != nil {
				return err
			}
			send.Hops, send.ChipHops = hops, chipHops
			if send.Dst, err = rel(dstChip, dstTile); err != nil {
				return err
			}
		} else {
			// Host egress: drain to the corner, one board link out.
			hops, err := mesh.Hops(srcTile, mesh.EgressTile())
			if err != nil {
				return err
			}
			send.Hops, send.ChipHops, send.Dst = hops, 1, 0
		}
		// Gather SENDs for secondary shards, in shard order.
		var gathers isa.Program
		for _, sh := range lp.Shards[1:] {
			hops, chipHops, err := routeHops(mesh, cfg, sh.Chip, sh.Tiles[0], srcChip, srcTile)
			if err != nil {
				return err
			}
			shRel, err := rel(sh.Chip, sh.Tiles[0])
			if err != nil {
				return err
			}
			gathers = append(gathers, isa.Instruction{
				Op: isa.OpSend, Bytes: max(demands[li].PartialBytes, 1),
				Hops: hops, ChipHops: chipHops,
				Src: shRel, Dst: srcRel,
				Comment: lp.Name + "/gather",
			})
		}
		if len(gathers) > 0 {
			rest := append(isa.Program{}, layerProgs[li][sendIdx:]...)
			layerProgs[li] = append(append(layerProgs[li][:sendIdx:sendIdx], gathers...), rest...)
		}
	}
	return nil
}

// lowerBinary emits the instruction sequence of one binary layer,
// dispatching on the design's mapping strategy and WDM capability.
func lowerBinary(lc bnn.LayerCost, cfg arch.Config, spec arch.DesignSpec, k, avgHops int) (isa.Program, LayerAlloc, error) {
	w := lc.Work
	la := LayerAlloc{Name: lc.Name, Kind: lc.Kind}
	var prog isa.Program
	switch spec.Mapping {
	case arch.MappingCust:
		// CustBinaryMap: the 2T2R array has CrossbarCols/2 logical
		// columns. The baseline serializes vector operations (paper
		// §II: "at most one single vector operation at a time").
		plan, err := core.PlanCust(w.N, w.M, cfg.CrossbarRows, cfg.CrossbarCols/2)
		if err != nil {
			return nil, la, err
		}
		la.VCores = plan.Tiles()
		steps := int64(plan.RowActivationsPerInput())
		la.Steps = steps * int64(w.Positions)
		prog = append(prog,
			isa.Instruction{
				Op: isa.OpRowStep, Count: steps, Repeat: int64(w.Positions),
				Cells:   2 * int64(w.N) * int64(w.M), // (w,¬w) device pairs sensed per input
				Comment: lc.Name,
			},
			isa.Instruction{
				Op: isa.OpPopc, Count: int64(plan.PopcountOpsPerInput()) * int64(w.Positions),
				Comment: lc.Name,
			},
		)
		if adds := plan.DigitalAddsPerInput(); adds > 0 {
			prog = append(prog, isa.Instruction{
				Op: isa.OpAdd, Count: int64(adds) * int64(w.Positions), Comment: lc.Name,
			})
		}
	case arch.MappingTacit:
		plan, err := core.PlanTacit(w.N, w.M, cfg.CrossbarRows, cfg.CrossbarCols)
		if err != nil {
			return nil, la, err
		}
		la.VCores = plan.Tiles()
		convs := int64(plan.ADCConversionsPerInput())
		dacs := int64(plan.DACConversionsPerInput())
		cells := 2 * int64(w.N) * int64(w.M) // [w;¬w] cells conducting per activation
		if spec.WDM {
			repeats := int64(ceilDiv(w.Positions, k))
			la.Steps = repeats
			kEff := int64(min(k, w.Positions))
			prog = append(prog, isa.Instruction{
				Op: isa.OpMMM, Tiles: plan.Tiles(), K: k, Repeat: repeats,
				Convs: convs * kEff,
				DACs:  dacs * kEff,
				Cells: cells,
				// Count = rows the transmitter modulates per stream
				// ([x;¬x] slice, bounded by the array height).
				Count:   int64(min(2*w.M, cfg.CrossbarRows)),
				Comment: lc.Name,
			})
		} else {
			la.Steps = int64(w.Positions)
			prog = append(prog, isa.Instruction{
				Op: isa.OpMVM, Tiles: plan.Tiles(), Repeat: int64(w.Positions),
				Convs: convs, DACs: dacs, Cells: cells,
				Comment: lc.Name,
			})
		}
		if adds := plan.DigitalAddsPerInput(); adds > 0 {
			prog = append(prog, isa.Instruction{
				Op: isa.OpAdd, Count: int64(adds) * int64(w.Positions), Comment: lc.Name,
			})
		}
	default:
		return nil, la, fmt.Errorf("unknown mapping %v", spec.Mapping)
	}
	prog = append(prog,
		isa.Instruction{Op: isa.OpThresh, Count: int64(w.N) * int64(w.Positions), Comment: lc.Name},
		isa.Instruction{Op: isa.OpSend, Bytes: max(lc.ActivationBytes, 1), Hops: avgHops, Comment: lc.Name},
	)
	return prog, la, nil
}

// weightSlices is the number of cells one multi-bit weight occupies:
// InputBits slices on binary cells, packed BitsPerCell-per-device on
// multi-level-cell designs (device/mlc.go).
func weightSlices(cfg arch.Config, spec arch.DesignSpec) int {
	return ceilDiv(cfg.InputBits, spec.BitsPerCell())
}

// lowerFP emits the instruction sequence of a high-precision layer.
// FP layers run identically on every CIM design except for the VCore
// technology: multi-bit weights are bit-sliced across columns and the
// activations are bit-streamed (InputBits sequential binary VMMs with
// shift-and-add), the standard PUMA/ISAAC scheme. MLC designs pack
// BitsPerCell weight slices per device, shrinking the tile footprint
// and the converted-column count (their cost hook prices the finer
// readout). The compiler may replicate a first conv layer
// FPReplication× to process positions in parallel; WDM designs
// additionally batch positions across wavelengths.
func lowerFP(lc bnn.LayerCost, cfg arch.Config, spec arch.DesignSpec, k, avgHops int) (isa.Program, LayerAlloc, error) {
	la := LayerAlloc{Name: lc.Name, Kind: lc.Kind}
	positions := max(lc.Work.Positions, 1)
	// Layers with many positions (first conv layers) are replicated so
	// positions proceed in parallel; dense layers have one position and
	// gain nothing from replication.
	repl := 1
	if positions > 1 {
		repl = min(cfg.FPReplication, positions)
	}
	slices := int64(weightSlices(cfg, spec))
	// Tiles to hold the N×M weights at `slices` cells per weight.
	perReplica := int64(lc.Work.N) * int64(lc.Work.M) * slices
	tiles := int(ceilDiv64(perReplica, int64(cfg.CellsPerVCore())))
	if tiles < 1 {
		tiles = 1
	}
	tiles *= repl
	la.VCores = tiles

	batched := ceilDiv(positions, repl)
	if spec.WDM {
		batched = ceilDiv(batched, k)
	}
	la.Steps = int64(batched) * int64(cfg.InputBits)
	bits := int64(cfg.InputBits)
	// Per repeat: every replica fires once per input-bit step — N·slices
	// occupied columns convert on each of the bits steps.
	prog := isa.Program{
		isa.Instruction{
			Op: isa.OpFPMVM, Tiles: tiles, Bits: cfg.InputBits, Repeat: int64(batched),
			// K doubles as the input-stream (replica) count for FPMVM:
			// each replica needs its own modulated transmitter stream.
			K:       repl,
			Convs:   int64(lc.Work.N) * slices * bits * int64(repl),
			DACs:    int64(lc.Work.M) * bits * int64(repl),
			Cells:   int64(lc.Work.N) * int64(lc.Work.M) * slices * int64(repl),
			Count:   int64(min(lc.Work.M, cfg.CrossbarRows)),
			Comment: lc.Name,
		},
		isa.Instruction{Op: isa.OpSend, Bytes: max(lc.ActivationBytes, 1), Hops: avgHops, Comment: lc.Name},
	}
	return prog, la, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func ceilDiv64(a, b int64) int64 { return (a + b - 1) / b }
