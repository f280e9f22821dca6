package eval

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	rep := runReport(t)
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // header + 6 networks
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0] != "network" || rows[1][0] != "CNN-S" {
		t.Fatalf("ordering wrong: %v %v", rows[0][0], rows[1][0])
	}
	// Fig. 7 column must parse and exceed 1 for all networks.
	for _, row := range rows[1:] {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil || v <= 1 {
			t.Fatalf("bad tacit speedup %q", row[1])
		}
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	rep := runReport(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, frag := range []string{"\"summary\"", "\"networks\"", "CNN-L", "fig8_eb_norm_energy"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("JSON missing %q", frag)
		}
	}
	var jr jsonReport
	if err := json.Unmarshal(buf.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}
	got, want := jr.Summary, rep.summarize()
	if math.Abs(got.MeanTacitSpeedup-want.MeanTacitSpeedup) > 1e-9 ||
		math.Abs(got.MeanEBEnergyGain-want.MeanEBEnergyGain) > 1e-9 {
		t.Fatal("summary round trip diverged")
	}
}
