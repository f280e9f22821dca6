package eval

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"einsteinbarrier/internal/arch"
)

func TestComparePlacementsTableAndDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	networks := []string{"CNN-S", "CNN-L"}
	placers := []string{"greedy", "mesh"}
	rows, err := ComparePlacements(cfg, networks, placers, arch.EinsteinBarrier, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(networks)*len(placers) {
		t.Fatalf("%d rows", len(rows))
	}
	// Parallel fan-out is bit-identical to serial.
	serial := cfg
	serial.Workers = 1
	srows, err := ComparePlacements(serial, networks, placers, arch.EinsteinBarrier, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, srows) {
		t.Fatal("parallel and serial comparison differ")
	}
	// The table and CSV render every row.
	table := textOf(t, Placements(rows))
	for _, frag := range []string{"greedy", "mesh", "CNN-L", "bottleneck"} {
		if !strings.Contains(table, frag) {
			t.Fatalf("table missing %q:\n%s", frag, table)
		}
	}
	var buf bytes.Buffer
	if err := Placements(rows).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", lines, len(rows))
	}
	// The headline trade-off holds on CNN-L: mesh out-runs greedy and
	// stalls less on the NoC.
	var greedy, mesh PlacementRow
	for _, r := range rows {
		if r.Network == "CNN-L" && r.Placer == "greedy" {
			greedy = r
		}
		if r.Network == "CNN-L" && r.Placer == "mesh" {
			mesh = r
		}
	}
	if mesh.ThroughputPerSec <= greedy.ThroughputPerSec {
		t.Fatalf("mesh %v not above greedy %v", mesh.ThroughputPerSec, greedy.ThroughputPerSec)
	}
	if mesh.LinkWaitNs >= greedy.LinkWaitNs {
		t.Fatalf("mesh wait %v not below greedy %v", mesh.LinkWaitNs, greedy.LinkWaitNs)
	}
}

func TestComparePlacementsRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := ComparePlacements(cfg, nil, nil, arch.EinsteinBarrier, 0); err == nil {
		t.Fatal("batch 0 must error")
	}
	if _, err := ComparePlacements(cfg, []string{"nope"}, nil, arch.EinsteinBarrier, 1); err == nil {
		t.Fatal("unknown network must error")
	}
	if _, err := ComparePlacements(cfg, nil, nil, arch.Design(99), 1); err == nil {
		t.Fatal("unknown design must error")
	}
	if _, err := ComparePlacements(cfg, nil, []string{"nope"}, arch.EinsteinBarrier, 1); err == nil {
		t.Fatal("unknown placer must error")
	}
}

func TestCoLocateBuildsSharedFabric(t *testing.T) {
	cfg := DefaultConfig()
	cs, es, searches, err := CoLocate(cfg, []string{"MLP-S", "CNN-S"}, arch.EinsteinBarrier, "mesh", 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 || len(es.Engines()) != 2 {
		t.Fatalf("%d compileds, %d engines", len(cs), len(es.Engines()))
	}
	if searches != nil {
		t.Fatalf("heuristic co-location returned search records %+v", searches)
	}
	for _, c := range cs {
		if c.Placement.Placer != "mesh" {
			t.Fatalf("%s placed by %q, want mesh", c.ModelName, c.Placement.Placer)
		}
	}
	if a, b := cs[0].Placement.Region, cs[1].Placement.Region; a.Chip < b.Chip+b.Chips && b.Chip < a.Chip+a.Chips &&
		a.X0 < b.X0+b.W && b.X0 < a.X0+a.W && a.Y0 < b.Y0+b.H && b.Y0 < a.Y0+a.H {
		t.Fatal("co-located regions overlap")
	}
	r, err := es.RunSet(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Models) != 2 || r.AggregatePerSec <= 0 {
		t.Fatalf("bad set result %+v", r)
	}
	if _, _, _, err := CoLocate(cfg, nil, arch.EinsteinBarrier, "greedy", 16); err == nil {
		t.Fatal("empty model list must error")
	}
	if _, _, _, err := CoLocate(cfg, []string{"MLP-S"}, arch.EinsteinBarrier, "warp", 16); err == nil {
		t.Fatal("unknown placer must error")
	}
	if _, _, _, err := CoLocate(cfg, []string{"MLP-S"}, arch.EinsteinBarrier, "mesh", 0); err == nil {
		t.Fatal("batch 0 must error")
	}
}
