package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		Title: "title",
		Cols: []Col{
			{Head: "name", Key: "name"},
			{Head: "lat_us", Fmt: "%.2f"}, {Key: "lat_ns"},
			{Head: "n", Key: "n"},
		},
		Footer: []string{"footer"},
	}
	t.Add("a", 1.5, 1500.0, 3)
	t.Add("longer", 12.25, 12250.0, 10)
	t.Add("MEAN", 6.875)
	return t
}

// TestText: text columns only, aligned, short rows blank, title and
// footer around the rows.
func TestText(t *testing.T) {
	var sb strings.Builder
	if err := sample().Text(&sb); err != nil {
		t.Fatal(err)
	}
	want := "title\n" +
		"name    lat_us   n\n" +
		"a         1.50   3\n" +
		"longer   12.25  10\n" +
		"MEAN      6.88\n" +
		"footer\n"
	if sb.String() != want {
		t.Fatalf("text:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestCSV: CSV keys only, floats at 8 significant digits, no title or
// footer, missing cells empty.
func TestCSV(t *testing.T) {
	var sb strings.Builder
	tb := sample()
	tb.Add("q,uote", 0.0, 1.0/3, 0)
	if err := tb.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "name,lat_ns,n\n" +
		"a,1500,3\n" +
		"longer,12250,10\n" +
		"MEAN,,\n" +
		"\"q,uote\",0.33333333,0\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestModeAndWrite(t *testing.T) {
	if _, err := ParseMode(true, true); err == nil {
		t.Fatal("-csv with -json must error")
	}
	for _, tc := range []struct {
		csv, json bool
		prefix    string
	}{
		{false, false, "title\n"},
		{true, false, "name,lat_ns,n\n"},
		{false, true, "{\n  \"k\": 1\n}"},
	} {
		m, err := ParseMode(tc.csv, tc.json)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := Write(&sb, m, sample(), map[string]int{"k": 1}); err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(sb.String(), tc.prefix) {
			t.Fatalf("mode %v wrote %q, want prefix %q", m, sb.String(), tc.prefix)
		}
	}
}
