// Package eval is the experiment harness: it runs the four evaluated
// designs (Baseline-ePCM, TacitMap-ePCM, EinsteinBarrier, Baseline-GPU)
// over the six-network zoo and produces the series behind the paper's
// Fig. 7 (normalized latency) and Fig. 8 (normalized energy), plus the
// headline aggregates called out in §VI (observations 1–4).
package eval

import (
	"flag"
	"fmt"
	"math"
	"sort"
	"strconv"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/gpu"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/trace"
)

// Config parameterizes one evaluation run.
type Config struct {
	// Arch is the accelerator configuration (shared by the CIM designs).
	Arch arch.Config
	// Costs is the event cost table.
	Costs energy.CostParams
	// GPU is the Baseline-GPU model.
	GPU gpu.Model
	// Seed is the zoo weight-synthesis seed of callers that run a
	// forward pass on the zoo. Pricing reads shapes only (bnn.Arch), so
	// nothing in this package reads it; it goes once the benchmark
	// driver stops reading it too.
	Seed int64
	// Workers bounds the compile+simulate fan-out: every network×design
	// pair is an independent job run on a worker pool. 0 (the default)
	// means one worker per available CPU; 1 forces the serial path. The
	// report is bit-identical at any worker count.
	Workers int
	// Designs selects the CIM designs to evaluate, resolved through the
	// arch design registry. Nil means the paper's Fig. 7/8 set
	// (arch.CIMDesigns). The paper's three designs must be included —
	// the figure series are normalized to Baseline-ePCM — but any
	// registered design may ride along and lands in
	// NetworkResult.Results.
	Designs []arch.Design
	// Search parameterizes the annealing placer wherever a placement
	// experiment names "search" (Place, CoLocate, ComparePlacements).
	Search SearchSpec
}

// SearchSpec configures the search placer's budget and objective.
type SearchSpec struct {
	// Steps is the candidate-evaluation budget
	// (0 = compiler.DefaultSearchSteps).
	Steps int
	// Seed seeds the search RNG streams (0 = 1). Co-location search
	// offsets it per model.
	Seed int64
	// Batch is the objective's batch size — candidates are accepted on
	// Engine.RunBatch(Batch) throughput. 0 means the experiment's own
	// batch size.
	Batch int
	// Trace, when non-nil, receives the search trajectory (one process
	// per searched model) — see compiler.SearchOptions.Trace.
	Trace *trace.Recorder
}

// SearchFlags registers the search placer's -search-steps, -search-seed
// and -search-batch flags on fs, filling s. batch names what
// -search-batch 0 falls back to in the command at hand; any other
// value the engine cannot run fails the parse.
func SearchFlags(fs *flag.FlagSet, s *SearchSpec, batch string) {
	fs.IntVar(&s.Steps, "search-steps", compiler.DefaultSearchSteps, "candidate-evaluation budget of the search placer")
	fs.Int64Var(&s.Seed, "search-seed", 1, "search placer RNG seed")
	fs.Func("search-batch", "batch size of the search objective (0 = "+batch+")", func(v string) error {
		b, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		if b != 0 {
			if err := sim.CheckBatch(b); err != nil {
				return err
			}
		}
		s.Batch = b
		return nil
	})
}

// ArchFlags registers the -k and -cols-per-adc architecture overrides
// on fs; a negative value fails the parse. The returned func applies
// the ones set (> 0) to a config.
func ArchFlags(fs *flag.FlagSet) func(*arch.Config) {
	var k, colsPerADC int
	nonNegative := func(dst *int) func(string) error {
		return func(v string) error {
			n, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			if n < 0 {
				return fmt.Errorf("%d is negative", n)
			}
			*dst = n
			return nil
		}
	}
	fs.Func("k", "override WDM capacity (0 = architecture default 16)", nonNegative(&k))
	fs.Func("cols-per-adc", "override ADC sharing factor (0 = architecture default)", nonNegative(&colsPerADC))
	return func(c *arch.Config) {
		if k > 0 {
			c.WDMCapacity = k
		}
		if colsPerADC > 0 {
			c.ColumnsPerADC = colsPerADC
		}
	}
}

// designs returns the evaluated design set.
func (c Config) designs() []arch.Design {
	if len(c.Designs) == 0 {
		return arch.CIMDesigns
	}
	return c.Designs
}

// DefaultConfig returns the calibrated evaluation defaults.
func DefaultConfig() Config {
	return Config{
		Arch:  arch.DefaultConfig(),
		Costs: energy.DefaultCostParams(),
		GPU:   gpu.DefaultModel(),
		Seed:  1,
	}
}

// NetworkResult holds every measured quantity for one network.
type NetworkResult struct {
	Network string
	// Latencies in ns.
	LatBaseline, LatTacit, LatEB, LatGPU float64
	// Energies in pJ (CIM designs only; the GPU energy is reported but
	// not part of Fig. 8).
	EnergyBaseline, EnergyTacit, EnergyEB float64
	EnergyGPU                             float64
	// Per-design simulation results for drill-down.
	Results map[arch.Design]*sim.Result
}

// fig7Speedups returns the Fig. 7 series for this network: latency
// improvements over Baseline-ePCM (higher is better).
func (n NetworkResult) fig7Speedups() (tacit, eb, gpuRel float64) {
	return n.LatBaseline / n.LatTacit,
		n.LatBaseline / n.LatEB,
		n.LatBaseline / n.LatGPU
}

// fig8Normalized returns the Fig. 8 series: energy normalized to
// Baseline-ePCM (lower is better).
func (n NetworkResult) fig8Normalized() (tacit, eb float64) {
	return n.EnergyTacit / n.EnergyBaseline, n.EnergyEB / n.EnergyBaseline
}

// Report is a full evaluation run.
type Report struct {
	Config   Config
	Networks []NetworkResult
}

// Run executes the full evaluation. Every network×design pair is
// compiled and simulated as an independent job on a worker pool of
// cfg.Workers goroutines (see Config.Workers); both the compiler and
// the simulator are deterministic pure functions of their inputs, so
// the report is bit-identical to the serial (Workers = 1) path.
func Run(cfg Config) (*Report, error) {
	if err := cfg.GPU.Validate(); err != nil {
		return nil, err
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, err
	}
	models := bnn.ZooArchs()
	designs := cfg.designs()
	for _, need := range arch.CIMDesigns {
		found := false
		for _, d := range designs {
			if d == need {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("eval: design set must include %v (figure series are normalized to it)", need)
		}
	}
	for _, d := range designs {
		if _, err := d.Spec(); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	nd := len(designs)
	results, err := infer.Map(cfg.Workers, len(models)*nd, func(_, j int) (*sim.Result, error) {
		m, d := models[j/nd], designs[j%nd]
		c, err := compiler.Compile(m, cfg.Arch, d)
		if err != nil {
			return nil, fmt.Errorf("eval: %s/%v: %w", m.Name(), d, err)
		}
		r, err := simulator.Run(c)
		if err != nil {
			return nil, fmt.Errorf("eval: %s/%v: %w", m.Name(), d, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{Config: cfg}
	for mi, m := range models {
		byDesign := make(map[arch.Design]*sim.Result, nd)
		for di, d := range designs {
			byDesign[d] = results[mi*nd+di]
		}
		nr := NetworkResult{
			Network:        m.Name(),
			LatBaseline:    byDesign[arch.BaselineEPCM].LatencyNs,
			LatTacit:       byDesign[arch.TacitEPCM].LatencyNs,
			LatEB:          byDesign[arch.EinsteinBarrier].LatencyNs,
			LatGPU:         cfg.GPU.InferenceLatencyNs(m),
			EnergyBaseline: byDesign[arch.BaselineEPCM].EnergyPJ(),
			EnergyTacit:    byDesign[arch.TacitEPCM].EnergyPJ(),
			EnergyEB:       byDesign[arch.EinsteinBarrier].EnergyPJ(),
			EnergyGPU:      cfg.GPU.InferenceEnergyPJ(m),
			Results:        byDesign,
		}
		rep.Networks = append(rep.Networks, nr)
	}
	return rep, nil
}

// Summary aggregates the headline numbers of §VI.
type Summary struct {
	// MeanTacitSpeedup / MeanEBSpeedup are the Fig. 7 averages
	// (paper: ~78× and ~1205×).
	MeanTacitSpeedup, MeanEBSpeedup float64
	// MaxTacitSpeedup (paper: up to ~154×), MinEBSpeedup / MaxEBSpeedup
	// (paper: ~22× … ~3113×).
	MaxTacitSpeedup            float64
	MinEBSpeedup, MaxEBSpeedup float64
	// MeanEBOverTacit (paper: ~15×).
	MeanEBOverTacit float64
	// MeanTacitEnergyX is Fig. 8's TacitMap-ePCM mean normalized energy
	// expressed as an increase factor (paper: ~5.35× more energy).
	MeanTacitEnergyX float64
	// MeanEBEnergyGain is Baseline/EB energy (paper: ~1.56×), and
	// MeanEBOverTacitEnergy is Tacit/EB (paper: ~11.94×).
	MeanEBEnergyGain, MeanEBOverTacitEnergy float64
	// GPUFasterCount counts networks where Baseline-ePCM loses to the
	// GPU (paper observation 4: it happens for MLPs).
	GPUFasterCount int
	// BaselineVsGPUBest / Worst are the extremes of Baseline-ePCM vs
	// GPU (paper: ~4× faster on a CNN, ~27× slower on MLP-L).
	BaselineVsGPUBest, BaselineVsGPUWorst float64
}

// summarize computes the aggregates. Means are arithmetic over the six
// networks, matching the paper's "on average" phrasing; geometric means
// are also reported by the String method for completeness.
func (r *Report) summarize() Summary {
	var s Summary
	s.MinEBSpeedup = math.Inf(1)
	s.BaselineVsGPUBest = math.Inf(-1)
	s.BaselineVsGPUWorst = math.Inf(1)
	var tacitSum, ebSum, ratioSum, tEnergySum, ebEnergyGainSum, ebOverTacitESum float64
	for _, n := range r.Networks {
		tacit, eb, _ := n.fig7Speedups()
		tacitSum += tacit
		ebSum += eb
		ratioSum += n.LatTacit / n.LatEB
		s.MaxTacitSpeedup = math.Max(s.MaxTacitSpeedup, tacit)
		s.MinEBSpeedup = math.Min(s.MinEBSpeedup, eb)
		s.MaxEBSpeedup = math.Max(s.MaxEBSpeedup, eb)
		tn, en := n.fig8Normalized()
		tEnergySum += tn
		ebEnergyGainSum += 1 / en
		ebOverTacitESum += tn / en
		baseVsGPU := n.LatGPU / n.LatBaseline // >1 ⇒ baseline faster
		if baseVsGPU < 1 {
			s.GPUFasterCount++
		}
		s.BaselineVsGPUBest = math.Max(s.BaselineVsGPUBest, baseVsGPU)
		s.BaselineVsGPUWorst = math.Min(s.BaselineVsGPUWorst, baseVsGPU)
	}
	k := float64(len(r.Networks))
	s.MeanTacitSpeedup = tacitSum / k
	s.MeanEBSpeedup = ebSum / k
	s.MeanEBOverTacit = ratioSum / k
	s.MeanTacitEnergyX = tEnergySum / k
	s.MeanEBEnergyGain = ebEnergyGainSum / k
	s.MeanEBOverTacitEnergy = ebOverTacitESum / k
	return s
}

// Fig7 is the Fig. 7 series as a table.
func (r *Report) Fig7() *report.Table {
	t := &report.Table{
		Title: "Fig. 7 — Latency improvement over Baseline-ePCM (higher = better)",
		Cols: []report.Col{{Head: "Network"}, {Head: "TacitMap-ePCM", Fmt: "%.1fx"},
			{Head: "EinsteinBarrier", Fmt: "%.1fx"}, {Head: "GPU-vs-Baseline*", Fmt: "%.2fx"}},
		Footer: []string{"* >1 means Baseline-ePCM beats the GPU on that network."},
	}
	for _, n := range r.Networks {
		tacit, eb, _ := n.fig7Speedups()
		t.Add(n.Network, tacit, eb, n.LatGPU/n.LatBaseline)
	}
	s := r.summarize()
	t.Add("MEAN", s.MeanTacitSpeedup, s.MeanEBSpeedup)
	t.Add("GMEAN", r.geomean(func(n NetworkResult) float64 {
		tacit, _, _ := n.fig7Speedups()
		return tacit
	}), r.geomean(func(n NetworkResult) float64 {
		_, eb, _ := n.fig7Speedups()
		return eb
	}))
	return t
}

// Fig8 is the Fig. 8 series as a table.
func (r *Report) Fig8() *report.Table {
	t := &report.Table{
		Title: "Fig. 8 — Energy normalized to Baseline-ePCM (lower = better)",
		Cols:  []report.Col{{Head: "Network"}, {Head: "TacitMap-ePCM", Fmt: "%.2fx"}, {Head: "EinsteinBarrier", Fmt: "%.2fx"}},
	}
	for _, n := range r.Networks {
		tn, en := n.fig8Normalized()
		t.Add(n.Network, tn, en)
	}
	s := r.summarize()
	t.Add("MEAN", s.MeanTacitEnergyX, 1/s.MeanEBEnergyGain)
	return t
}

// Observations is the §VI callouts next to the paper's values.
func (r *Report) Observations() *report.Table {
	s := r.summarize()
	t := &report.Table{Cols: []report.Col{{Head: "Observation (§VI)"}, {Head: "measured", Fmt: "%.2fx"}, {Head: "paper"}}}
	t.Add("TacitMap mean latency speedup", s.MeanTacitSpeedup, "~78x")
	t.Add("TacitMap max latency speedup", s.MaxTacitSpeedup, "~154x")
	t.Add("EinsteinBarrier mean latency speedup", s.MeanEBSpeedup, "~1205x")
	t.Add("EinsteinBarrier min latency speedup", s.MinEBSpeedup, "~22x")
	t.Add("EinsteinBarrier max latency speedup", s.MaxEBSpeedup, "~3113x")
	t.Add("EinsteinBarrier over TacitMap (mean)", s.MeanEBOverTacit, "~15x")
	t.Add("TacitMap energy increase vs baseline", s.MeanTacitEnergyX, "~5.35x")
	t.Add("EinsteinBarrier energy gain vs baseline", s.MeanEBEnergyGain, "~1.56x")
	t.Add("EinsteinBarrier energy gain vs TacitMap", s.MeanEBOverTacitEnergy, "~11.94x")
	t.Add("Baseline-ePCM best case vs GPU", s.BaselineVsGPUBest, "~4x faster")
	t.Add("Baseline-ePCM worst case vs GPU", 1/s.BaselineVsGPUWorst, "~27x slower")
	return t
}

func (r *Report) geomean(f func(NetworkResult) float64) float64 {
	logSum := 0.0
	for _, n := range r.Networks {
		logSum += math.Log(f(n))
	}
	return math.Exp(logSum / float64(len(r.Networks)))
}

// SortedByName returns the networks in figure order (CNNs then MLPs,
// each ascending — the zoo order).
func (r *Report) SortedByName() []NetworkResult {
	out := make([]NetworkResult, len(r.Networks))
	copy(out, r.Networks)
	order := map[string]int{}
	for i, n := range bnn.ZooNames {
		order[n] = i
	}
	sort.Slice(out, func(i, j int) bool { return order[out[i].Network] < order[out[j].Network] })
	return out
}
