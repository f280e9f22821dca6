package compiler

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/isa"
	"einsteinbarrier/internal/noc"
)

// Lowered is the placement-independent prefix of a compilation: the
// per-layer ISA programs (before tile resolution), the layer demands,
// the VCore allocation and the weight-write count — everything that
// depends only on (model, config, design), never on where the layers
// land. The search placer compiles hundreds of candidate placements of
// ONE model, so this is computed once and replayed through compile per
// candidate; CompileWith is lower + compile, byte-identical to the
// monolithic path (pinned by TestLoweredCompileByteIdentical).
type Lowered struct {
	// ModelName and Design echo the inputs.
	ModelName string
	Design    arch.Design

	cfg  arch.Config
	mesh noc.Config

	// layerProgs are the per-layer instruction templates, each ending
	// with the layer's SYNC. Exact placements deep-copy them before the
	// placement pass rewrites SENDs; inexact placements share them.
	layerProgs []isa.Program
	demands    []LayerDemand
	allocs     []LayerAlloc

	vcoresUsed   int
	weightWrites int64
}

// lower runs the placement-independent compilation prefix: it resolves
// the design spec, validates the model, and lowers every layer to its
// instruction template, demand and allocation.
func lower(model bnn.Network, cfg arch.Config, design arch.Design) (*Lowered, error) {
	spec, err := design.Spec()
	if err != nil {
		return nil, fmt.Errorf("compiler: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	mesh := noc.DefaultConfig(cfg.MeshWidth())
	avgHops := int(mesh.AverageHops() + 0.5)
	k := cfg.EffectiveK(design)

	lw := &Lowered{ModelName: model.Name(), Design: design, cfg: cfg, mesh: mesh}
	next := 0 // next free flat VCore index
	alloc := func(n int) int {
		first := next
		next += n
		return first
	}
	for _, lc := range model.Costs() {
		la := LayerAlloc{Name: lc.Name, Kind: lc.Kind}
		var ins isa.Program
		switch lc.Kind {
		case "binary":
			ins, la, err = lowerBinary(lc, cfg, spec, k, avgHops)
			if err != nil {
				return nil, fmt.Errorf("compiler: %s/%s: %w", model.Name(), lc.Name, err)
			}
			la.FirstVCore = alloc(la.VCores)
			lw.weightWrites += int64(2 * lc.Work.N * lc.Work.M)
		case "fp":
			ins, la, err = lowerFP(lc, cfg, spec, k, avgHops)
			if err != nil {
				return nil, fmt.Errorf("compiler: %s/%s: %w", model.Name(), lc.Name, err)
			}
			la.FirstVCore = alloc(la.VCores)
			// Multi-bit weights: one cell per stored slice — InputBits
			// slices on binary cells, fewer on multi-level cells.
			lw.weightWrites += lc.MACs * int64(weightSlices(cfg, spec))
		case "shape":
			// Reshapes, pooling and binarization fuse into the producing
			// layer's output path (OR-pooling and sign are single gates
			// behind the threshold units) — no instructions, no traffic.
			lw.allocs = append(lw.allocs, la)
			continue
		default:
			return nil, fmt.Errorf("compiler: unknown layer kind %q", lc.Kind)
		}
		lw.layerProgs = append(lw.layerProgs, append(ins, isa.Instruction{Op: isa.OpSync, Comment: lc.Name}))
		lw.allocs = append(lw.allocs, la)
		lw.demands = append(lw.demands, demandOf(lc, la.VCores))
	}
	lw.vcoresUsed = next
	return lw, nil
}

// compile runs the placement-dependent suffix: place the lowered
// layers, rewrite SENDs for layout-exact placements, and assemble the
// program. It never mutates the Lowered state, so one Lowered serves
// any number of candidate placements.
func (lw *Lowered) compile(opts Options) (*Compiled, error) {
	placer := opts.Placer
	if placer == nil {
		placer = GreedyPlacer{}
	}
	region := fullFabric(lw.cfg)
	if opts.Region != nil {
		region = *opts.Region
	}
	if err := region.Validate(lw.cfg); err != nil {
		return nil, err
	}
	pl, err := placer.Place(lw.demands, lw.cfg, region)
	if err != nil {
		return nil, fmt.Errorf("compiler: %s: %w", lw.ModelName, err)
	}
	if err := pl.Validate(lw.cfg); err != nil {
		return nil, err
	}
	if len(pl.Layers) != len(lw.layerProgs) {
		return nil, fmt.Errorf("compiler: placer %s placed %d layers, model has %d", placer.Name(), len(pl.Layers), len(lw.layerProgs))
	}
	layerProgs := lw.layerProgs
	if pl.Exact {
		// The placement pass rewrites SEND operands in place and splices
		// gather SENDs, so exact placements work on a deep copy of the
		// templates.
		layerProgs = make([]isa.Program, len(lw.layerProgs))
		for i, lp := range lw.layerProgs {
			layerProgs[i] = append(isa.Program{}, lp...)
		}
		if err := applyPlacement(layerProgs, lw.demands, pl, lw.cfg, lw.mesh); err != nil {
			return nil, err
		}
	}

	var prog isa.Program
	for _, lp := range layerProgs {
		prog = append(prog, lp...)
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if lw.vcoresUsed > lw.cfg.TotalVCores() {
		return nil, fmt.Errorf("compiler: %s needs %d VCores, architecture has %d",
			lw.ModelName, lw.vcoresUsed, lw.cfg.TotalVCores())
	}
	return &Compiled{
		ModelName:    lw.ModelName,
		Design:       lw.Design,
		Program:      prog,
		Allocs:       append([]LayerAlloc{}, lw.allocs...),
		VCoresUsed:   lw.vcoresUsed,
		WeightWrites: lw.weightWrites,
		Placement:    pl,
	}, nil
}
