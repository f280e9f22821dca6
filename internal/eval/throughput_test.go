package eval

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/report"
)

func throughputRows(t *testing.T, workers int) []ThroughputResult {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	rows, err := ThroughputAt(cfg, nil, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestThroughputAtCoversAllRegisteredDesigns(t *testing.T) {
	rows := throughputRows(t, 0)
	perDesign := map[arch.Design]int{}
	for _, r := range rows {
		perDesign[r.Design]++
		if len(r.Points) != 3 {
			t.Fatalf("%s/%v: %d points, want 3", r.Network, r.Design, len(r.Points))
		}
		prev := 0.0
		for _, p := range r.Points {
			if p.PerSec <= 0 || p.MakespanNs <= 0 {
				t.Fatalf("%s/%v B=%d: non-positive point", r.Network, r.Design, p.Batch)
			}
			if p.PerSec < prev {
				t.Fatalf("%s/%v: throughput not monotone at B=%d", r.Network, r.Design, p.Batch)
			}
			prev = p.PerSec
		}
		if r.SteadyStatePerSec < prev*(1-1e-9) {
			t.Fatalf("%s/%v: ceiling %g below achieved %g", r.Network, r.Design, r.SteadyStatePerSec, prev)
		}
	}
	// Every registered design — including MLC-ePCM and the wide-K
	// variant — appears for all six networks.
	for _, d := range []arch.Design{arch.MLCEPCM, arch.EinsteinBarrierK64, arch.BaselineEPCM} {
		if perDesign[d] != 6 {
			t.Fatalf("design %v covered %d times, want 6", d, perDesign[d])
		}
	}
}

// TestThroughputAtParallelBitIdentical: the sweep fans out over the
// worker pool; results must not depend on the worker count.
func TestThroughputAtParallelBitIdentical(t *testing.T) {
	serial := throughputRows(t, 1)
	parallel := throughputRows(t, 4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel throughput sweep differs from serial")
	}
}

func TestThroughputAtRejectsBadInput(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := ThroughputAt(cfg, nil, nil); err == nil {
		t.Fatal("empty batch list must error")
	}
	if _, err := ThroughputAt(cfg, nil, []int{0}); err == nil {
		t.Fatal("batch 0 must error")
	}
	if _, err := ThroughputAt(cfg, []arch.Design{arch.Design(99)}, []int{1}); err == nil {
		t.Fatal("unregistered design must error")
	}
}

func TestThroughputExports(t *testing.T) {
	rows := throughputRows(t, 0)

	text, csvTable := ThroughputTables(rows)
	var buf bytes.Buffer
	if err := csvTable.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 // header
	for _, r := range rows {
		wantRows += len(r.Points)
	}
	if len(recs) != wantRows {
		t.Fatalf("CSV has %d rows, want %d", len(recs), wantRows)
	}
	if recs[0][0] != "network" || recs[0][3] != "inferences_per_sec" {
		t.Fatalf("CSV header wrong: %v", recs[0])
	}

	buf.Reset()
	if err := report.JSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(rows) {
		t.Fatalf("JSON has %d rows, want %d", len(decoded), len(rows))
	}
	if _, ok := decoded[0]["steady_state_per_sec"]; !ok {
		t.Fatal("JSON missing steady_state_per_sec")
	}

	table := textOf(t, text)
	for _, frag := range []string{"MLC-ePCM", "EinsteinBarrier-K64", "B=16", "bottleneck"} {
		if !strings.Contains(table, frag) {
			t.Fatalf("table missing %q", frag)
		}
	}
}
