package sim

import (
	"fmt"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
)

// checkedEvaluator wraps a PlacementEvaluator in a real search and
// checks every candidate it scores against a freshly built engine: the
// pooled engine re-prices each candidate into the stage, binding,
// calendar and bottleneck-tally slices of the one before, so any stale
// state left in them shows up as a difference here.
type checkedEvaluator struct {
	t      *testing.T
	s      *Simulator
	pe     *PlacementEvaluator
	batch  int
	checks int
}

func (ce *checkedEvaluator) Score(c *compiler.Compiled) (float64, error) {
	t := ce.t
	computes := ce.pe.Counters().Computes
	got, err := ce.pe.result(c)
	if err != nil {
		return 0, err
	}
	fresh, err := ce.s.NewEngine(c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunBatch(ce.batch)
	if err != nil {
		t.Fatal(err)
	}
	if !batchResultsEqual(got, want) {
		t.Fatalf("candidate %d (%s): pooled engine differs from a fresh one:\n got  %+v\n want %+v",
			ce.checks, c.Placement.Fingerprint(), got, want)
	}
	refNs, refName := refBottleneck(fresh)
	if want.BottleneckNs != refNs || want.BottleneckName != refName {
		t.Fatalf("candidate %d: bottleneck %v %q, map reference %v %q",
			ce.checks, want.BottleneckNs, want.BottleneckName, refNs, refName)
	}
	if ce.pe.Counters().Computes > computes {
		// This candidate was priced on a pooled engine, which is back on
		// top of its pool: its own tally must match the reference too.
		pool := ce.pe.memo.pool[c.ModelName+"|"+c.Design.String()]
		if ns, name := refBottleneck(pool[len(pool)-1]); ns != got.BottleneckNs || name != got.BottleneckName {
			t.Fatalf("candidate %d: pooled bottleneck %v %q, map reference %v %q",
				ce.checks, got.BottleneckNs, got.BottleneckName, ns, name)
		}
	}
	if got.ThroughputPerSec > got.SteadyStatePerSec*(1+1e-9) {
		t.Fatalf("candidate %d: %v inf/s above the %v inf/s ceiling",
			ce.checks, got.ThroughputPerSec, got.SteadyStatePerSec)
	}
	ce.checks++
	return got.ThroughputPerSec, nil
}

// TestSearchRepriceMatchesFreshEngine runs real cold searches through
// the checked evaluator: every candidate's pooled engine must give the
// fresh engine's BatchResult bit for bit, its dense bottleneck tally
// must match the map-based reference, and the achieved throughput must
// stay under the analytic ceiling.
func TestSearchRepriceMatchesFreshEngine(t *testing.T) {
	s := newSim(t)
	cfg := arch.DefaultConfig()
	const batch = 64
	total := 0
	for _, model := range []string{"CNN-L", "MLP-L"} {
		m, err := bnn.Arch(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []arch.Design{arch.EinsteinBarrier, arch.TacitEPCM} {
			t.Run(fmt.Sprintf("%s/%v", model, d), func(t *testing.T) {
				pe, err := s.PlacementEvaluator(batch)
				if err != nil {
					t.Fatal(err)
				}
				ce := &checkedEvaluator{t: t, s: s, pe: pe, batch: batch}
				sp, err := compiler.NewSearchPlacer(m, cfg, d, ce, compiler.SearchOptions{Seed: 3, Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := compiler.CompileWith(m, cfg, d, compiler.Options{Placer: sp}); err != nil {
					t.Fatal(err)
				}
				if pe.Counters().PoolReuses == 0 {
					t.Fatal("no candidate was re-priced on a pooled engine")
				}
				total += ce.checks
			})
		}
	}
	if total < 200 {
		t.Fatalf("checked %d candidates, want ≥ 200", total)
	}
}

// refBottleneck is the map-based bottleneck the engine used before its
// dense tally: per-tile, per-link and per-port busy sums in maps, with
// the four first-seen order lists and strict > comparisons.
func refBottleneck(e *Engine) (ns float64, name string) {
	tileBusy := map[int]float64{}
	maxTile := 0
	for _, st := range e.stages {
		for _, t := range st.tiles {
			tileBusy[t] += st.serviceNs
			maxTile = max(maxTile, t)
		}
	}
	bneckTile := -1
	for t := 0; t <= maxTile; t++ {
		if busy, ok := tileBusy[t]; ok && busy > ns {
			ns, bneckTile = busy, t
		}
	}
	if bneckTile >= 0 {
		heaviest := -1.0
		for _, st := range e.stages {
			for _, t := range st.tiles {
				if t == bneckTile && st.serviceNs > heaviest {
					heaviest, name = st.serviceNs, st.name
				}
			}
		}
	}
	linkBusy := map[linkKey]float64{}
	chipBusy := map[int]float64{}
	bulkBusy := map[linkKey]float64{}
	bulkChipBusy := map[int]float64{}
	var linkOrder, bulkOrder []linkKey
	var chipOrder, bulkChipOrder []int
	for _, st := range e.stages {
		for _, l := range st.links {
			if _, seen := linkBusy[l]; !seen {
				linkOrder = append(linkOrder, l)
			}
			linkBusy[l] += st.sendSerNs
		}
		for _, p := range st.chipPorts {
			if _, seen := chipBusy[p]; !seen {
				chipOrder = append(chipOrder, p)
			}
			chipBusy[p] += st.chipSerNs
		}
		for _, bt := range st.bulk {
			for _, l := range bt.links {
				if _, seen := bulkBusy[l]; !seen {
					bulkOrder = append(bulkOrder, l)
				}
				bulkBusy[l] += bt.serNs
			}
			for _, p := range bt.ports {
				if _, seen := bulkChipBusy[p]; !seen {
					bulkChipOrder = append(bulkChipOrder, p)
				}
				bulkChipBusy[p] += st.chipSerNs
			}
		}
	}
	for _, l := range bulkOrder {
		if busy := bulkBusy[l]; busy > ns {
			ns, name = busy, fmt.Sprintf("bulk-link n%d:%d->%d", l.node, l.from, l.to)
		}
	}
	for _, l := range linkOrder {
		if busy := linkBusy[l]; busy > ns {
			ns, name = busy, fmt.Sprintf("link n%d:%d->%d", l.node, l.from, l.to)
		}
	}
	for _, n := range chipOrder {
		if busy := chipBusy[n]; busy > ns {
			ns, name = busy, fmt.Sprintf("chip-port n%d", n)
		}
	}
	for _, n := range bulkChipOrder {
		if busy := bulkChipBusy[n]; busy > ns {
			ns, name = busy, fmt.Sprintf("bulk-chip-port n%d", n)
		}
	}
	return ns, name
}
