package eval

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/isa"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/sim"
)

// Placement comparison: the BenchmarkPlacement experiment. For every
// network × placer the table reports the layout's footprint, the
// program's total SEND hop count, the serial latency (layout-exact
// placers pay their real hops), and the pipelined batch behaviour —
// throughput, ceiling and NoC stall time. This is where the placement
// IR's trade-off is visible in one screen: greedy packs densest,
// mesh pipelines ~2× faster and stalls least, shard is the only one
// that survives chip-splitting — and "search" anneals past all three,
// accepted on the same engine-measured inf/s the table reports.

// PlacementRow is one network × placer measurement.
type PlacementRow struct {
	Network string      `json:"network"`
	Placer  string      `json:"placer"`
	Design  arch.Design `json:"-"`
	// Tiles is the distinct tile count of the layout; VCores the logical
	// allocation (placer-independent).
	Tiles  int `json:"tiles"`
	VCores int `json:"vcores"`
	// TotalHops sums the program's SEND mesh hops; ChipHops the board
	// hops (sharded layouts pay these).
	TotalHops int `json:"total_hops"`
	ChipHops  int `json:"chip_hops"`
	// LatencyNs is the serial critical path of the placed program.
	LatencyNs float64 `json:"latency_ns"`
	// Batch throughput numbers at the requested batch size.
	Batch             int     `json:"batch"`
	ThroughputPerSec  float64 `json:"inferences_per_sec"`
	SteadyStatePerSec float64 `json:"steady_state_per_sec"`
	LinkWaitNs        float64 `json:"link_wait_ns"`
	Bottleneck        string  `json:"bottleneck"`
	// Search carries the annealing trace when Placer == "search".
	Search *compiler.SearchStats `json:"search,omitempty"`
}

// ComparePlacements runs every zoo network named in networks (nil means
// all) under every placer named in placers (nil means all registered
// names, search included), on one design, and reports the table rows.
// Each row is placed by Place — "search" anneals on Engine.RunBatch
// throughput at cfg.Search.Batch (0 = the table's batch). Jobs fan out
// over cfg.Workers (the search itself then runs serial candidates
// inside its job); the result is deterministic at any worker count.
func ComparePlacements(cfg Config, networks []string, placers []string, d arch.Design, batch int) ([]PlacementRow, error) {
	if len(networks) == 0 {
		networks = bnn.ZooNames
	}
	if len(placers) == 0 {
		placers = compiler.PlacerNames
	}
	if batch < 1 {
		return nil, fmt.Errorf("eval: batch %d must be ≥ 1", batch)
	}
	if _, err := d.Spec(); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	for _, pname := range placers {
		if _, err := heuristic(pname); err != nil {
			return nil, err
		}
	}
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		return nil, err
	}
	// The outer Map already saturates the pool; a nested search
	// evaluates its candidates serially.
	jobCfg := cfg
	jobCfg.Workers = 1
	np := len(placers)
	return infer.Map(cfg.Workers, len(networks)*np, func(_, j int) (PlacementRow, error) {
		name, pname := networks[j/np], placers[j%np]
		row := PlacementRow{Network: name, Placer: pname, Design: d, Batch: batch}
		a, err := bnn.Arch(name)
		if err != nil {
			return row, err
		}
		c, ms, err := Place(jobCfg, a, d, pname, batch)
		if err != nil {
			return row, fmt.Errorf("eval: %s/%s: %w", name, pname, err)
		}
		if ms != nil {
			row.Search = &ms.Stats
		}
		row.VCores = c.VCoresUsed
		row.Tiles = c.Placement.TotalTiles(cfg.Arch)
		for _, in := range c.Program {
			if in.Op == isa.OpSend {
				row.TotalHops += in.Hops
				row.ChipHops += in.ChipHops
			}
		}
		eng, err := simulator.NewEngine(c)
		if err != nil {
			return row, fmt.Errorf("eval: %s/%s: %w", name, pname, err)
		}
		br, err := eng.RunBatch(batch)
		if err != nil {
			return row, fmt.Errorf("eval: %s/%s: %w", name, pname, err)
		}
		row.LatencyNs = br.LatencyNs
		row.ThroughputPerSec = br.ThroughputPerSec
		row.SteadyStatePerSec = br.SteadyStatePerSec
		row.LinkWaitNs = br.LinkWaitNs
		row.Bottleneck = br.BottleneckName
		return row, nil
	})
}

// Placements renders the comparison: the text table shows µs where
// the CSV keeps ns, and only the CSV repeats the design and batch the
// title names.
func Placements(rows []PlacementRow) *report.Table {
	t := &report.Table{Cols: []report.Col{
		{Head: "network", Key: "network"}, {Head: "placer", Key: "placer"}, {Key: "design"},
		{Head: "tiles", Key: "tiles"}, {Head: "vcores", Key: "vcores"},
		{Head: "hops", Key: "total_hops"}, {Head: "chip", Key: "chip_hops"},
		{Head: "latency_us", Fmt: "%.2f"}, {Key: "latency_ns"}, {Key: "batch"},
		{Head: "inf/s", Key: "inferences_per_sec", Fmt: "%.0f"},
		{Head: "ceiling", Key: "steady_state_per_sec", Fmt: "%.0f"},
		{Head: "linkwait_us", Fmt: "%.2f"}, {Key: "link_wait_ns"},
		{Head: "bottleneck", Key: "bottleneck"},
	}}
	if len(rows) > 0 {
		t.Title = fmt.Sprintf("Placement comparison on %v (B=%d)", rows[0].Design, rows[0].Batch)
	}
	for _, r := range rows {
		t.Add(r.Network, r.Placer, r.Design, r.Tiles, r.VCores, r.TotalHops, r.ChipHops,
			r.LatencyNs/1e3, r.LatencyNs, r.Batch, r.ThroughputPerSec, r.SteadyStatePerSec,
			r.LinkWaitNs/1e3, r.LinkWaitNs, r.Bottleneck)
	}
	return t
}

// PlacementWin summarizes one network's beats-or-matches outcome: the
// search placer's throughput against the best heuristic in the same
// table.
type PlacementWin struct {
	Network         string  `json:"network"`
	Design          string  `json:"design"`
	Batch           int     `json:"batch"`
	BestHeuristic   string  `json:"best_heuristic"`
	HeuristicPerSec float64 `json:"heuristic_inferences_per_sec"`
	SearchPerSec    float64 `json:"search_inferences_per_sec"`
	// GainX is search/heuristic (≥ 1 by the warm-start construction).
	GainX float64 `json:"gain_x"`
}

// PlacementWins distills a comparison into the beats-or-matches table:
// one row per network that has both a search row and at least one
// heuristic row. Networks keep their first-appearance order.
func PlacementWins(rows []PlacementRow) []PlacementWin {
	type acc struct {
		win  PlacementWin
		hasH bool
		hasS bool
	}
	var order []string
	by := map[string]*acc{}
	for _, r := range rows {
		a, ok := by[r.Network]
		if !ok {
			a = &acc{win: PlacementWin{Network: r.Network, Design: r.Design.String(), Batch: r.Batch}}
			by[r.Network] = a
			order = append(order, r.Network)
		}
		if r.Placer == "search" {
			a.hasS = true
			a.win.SearchPerSec = r.ThroughputPerSec
		} else if !a.hasH || r.ThroughputPerSec > a.win.HeuristicPerSec {
			a.hasH = true
			a.win.BestHeuristic = r.Placer
			a.win.HeuristicPerSec = r.ThroughputPerSec
		}
	}
	var out []PlacementWin
	for _, n := range order {
		a := by[n]
		if !a.hasH || !a.hasS {
			continue
		}
		a.win.GainX = a.win.SearchPerSec / a.win.HeuristicPerSec
		out = append(out, a.win)
	}
	return out
}

// SearchWins renders the beats-or-matches summary.
func SearchWins(wins []PlacementWin) *report.Table {
	t := &report.Table{Cols: []report.Col{{Head: "network"}, {Head: "best-heur"},
		{Head: "heur inf/s", Fmt: "%.0f"}, {Head: "search inf/s", Fmt: "%.0f"}, {Head: "gain", Fmt: "%.3fx"}}}
	if len(wins) > 0 {
		t.Title = fmt.Sprintf("Search vs best heuristic on %s (B=%d)", wins[0].Design, wins[0].Batch)
	}
	for _, w := range wins {
		t.Add(w.Network, w.BestHeuristic, w.HeuristicPerSec, w.SearchPerSec, w.GainX)
	}
	return t
}
