package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/isa"
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
	spec, err := d.Spec()
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	for _, pname := range placers {
		if _, err := heuristic(pname); err != nil {
			return nil, err
		}
	}
	// Tile accounting must use the design's effective geometry (TuneArch
	// hooks may resize the fabric the placement was computed against).
	ecfg := spec.EffectiveArch(cfg.Arch)
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
		m, err := bnn.NewModel(name, cfg.Seed)
		if err != nil {
			return row, err
		}
		c, ms, err := Place(jobCfg, m, d, pname, batch)
		if err != nil {
			return row, fmt.Errorf("eval: %s/%s: %w", name, pname, err)
		}
		if ms != nil {
			row.Search = &ms.Stats
		}
		row.VCores = c.VCoresUsed
		row.Tiles = c.Placement.TotalTiles(ecfg)
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

// PlacementTable renders the comparison as an aligned text table.
func PlacementTable(rows []PlacementRow) string {
	var sb strings.Builder
	if len(rows) > 0 {
		fmt.Fprintf(&sb, "Placement comparison on %v (B=%d)\n", rows[0].Design, rows[0].Batch)
	}
	fmt.Fprintf(&sb, "%-8s %-7s %6s %7s %5s %6s %12s %11s %11s %12s  %s\n",
		"network", "placer", "tiles", "vcores", "hops", "chip", "latency_us", "inf/s", "ceiling", "linkwait_us", "bottleneck")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-7s %6d %7d %5d %6d %12.2f %11.0f %11.0f %12.2f  %s\n",
			r.Network, r.Placer, r.Tiles, r.VCores, r.TotalHops, r.ChipHops,
			r.LatencyNs/1e3, r.ThroughputPerSec, r.SteadyStatePerSec, r.LinkWaitNs/1e3, r.Bottleneck)
	}
	return sb.String()
}

// WritePlacementCSV emits one row per network×placer.
func WritePlacementCSV(w io.Writer, rows []PlacementRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"network", "placer", "design", "tiles", "vcores", "total_hops", "chip_hops",
		"latency_ns", "batch", "inferences_per_sec", "steady_state_per_sec", "link_wait_ns", "bottleneck",
	}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Network, r.Placer, r.Design.String(), strconv.Itoa(r.Tiles), strconv.Itoa(r.VCores),
			strconv.Itoa(r.TotalHops), strconv.Itoa(r.ChipHops),
			f(r.LatencyNs), strconv.Itoa(r.Batch), f(r.ThroughputPerSec), f(r.SteadyStatePerSec),
			f(r.LinkWaitNs), r.Bottleneck,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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

// WinsTable renders the beats-or-matches summary.
func WinsTable(wins []PlacementWin) string {
	var sb strings.Builder
	if len(wins) > 0 {
		fmt.Fprintf(&sb, "Search vs best heuristic on %s (B=%d)\n", wins[0].Design, wins[0].Batch)
	}
	fmt.Fprintf(&sb, "%-8s %-10s %14s %14s %7s\n", "network", "best-heur", "heur inf/s", "search inf/s", "gain")
	for _, w := range wins {
		fmt.Fprintf(&sb, "%-8s %-10s %14.0f %14.0f %6.3fx\n",
			w.Network, w.BestHeuristic, w.HeuristicPerSec, w.SearchPerSec, w.GainX)
	}
	return sb.String()
}
