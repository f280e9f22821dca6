// Package report renders result tables. A result is built once as a
// Table — a title, ordered columns, rows and footer lines — and
// rendered as aligned text or as CSV; JSON encodes the result structs
// themselves. Every command picks its output mode with ParseMode, so
// each table lists its columns once and every report pads, formats and
// exports the same way.
package report

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Col is one column of a Table. Head is its text header (none makes the
// column CSV-only), Key its CSV header (none makes it text-only) and
// Fmt the fmt verb of its text cells (default %v).
type Col struct{ Head, Key, Fmt string }

// Table is one result: rows of cells under ordered columns, between
// text-only Title and Footer lines. A row may be shorter than Cols; its
// missing cells are blank.
type Table struct {
	Title  string
	Cols   []Col
	Rows   [][]any
	Footer []string
}

// Add appends one row.
func (t *Table) Add(cells ...any) { t.Rows = append(t.Rows, cells) }

// grid returns the header row and the rendered cells of the columns
// that name gives a header.
func (t *Table) grid(name func(Col) string, cell func(Col, any) string) [][]string {
	var cols []int
	var head []string
	for i, c := range t.Cols {
		if name(c) != "" {
			cols = append(cols, i)
			head = append(head, name(c))
		}
	}
	g := [][]string{head}
	for _, row := range t.Rows {
		line := make([]string, len(cols))
		for j, i := range cols {
			if i < len(row) && row[i] != nil {
				line[j] = cell(t.Cols[i], row[i])
			}
		}
		g = append(g, line)
	}
	return g
}

// Text writes the title, the header and rows of the text columns —
// the first left-aligned, the rest right-aligned — and the footer.
func (t *Table) Text(w io.Writer) error {
	g := t.grid(func(c Col) string { return c.Head }, func(c Col, v any) string {
		if c.Fmt == "" {
			return fmt.Sprint(v)
		}
		return fmt.Sprintf(c.Fmt, v)
	})
	width := make([]int, len(g[0]))
	for _, line := range g {
		for j, s := range line {
			width[j] = max(width[j], utf8.RuneCountInString(s))
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	for _, line := range g {
		var lb strings.Builder
		for j, s := range line {
			pad := strings.Repeat(" ", width[j]-utf8.RuneCountInString(s))
			if j == 0 {
				lb.WriteString(s + pad)
			} else {
				lb.WriteString("  " + pad + s)
			}
		}
		sb.WriteString(strings.TrimRight(lb.String(), " ") + "\n")
	}
	for _, line := range t.Footer {
		sb.WriteString(line + "\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// CSV writes a header of the CSV keys and one record per row. Floats
// print with 8 significant digits ('g'), which the golden exports pin.
func (t *Table) CSV(w io.Writer) error {
	return csv.NewWriter(w).WriteAll(t.grid(func(c Col) string { return c.Key }, func(_ Col, v any) string {
		if f, ok := v.(float64); ok {
			return strconv.FormatFloat(f, 'g', 8, 64)
		}
		return fmt.Sprint(v)
	}))
}

// JSON writes v as indented JSON, the machine-readable form of every
// result.
func JSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Mode is a report's output form.
type Mode int

const (
	ModeText Mode = iota
	ModeCSV
	ModeJSON
)

// ParseMode returns the mode the -csv and -json flags select; setting
// both is an error.
func ParseMode(csvOut, jsonOut bool) (Mode, error) {
	switch {
	case csvOut && jsonOut:
		return ModeText, errors.New("-csv and -json are mutually exclusive")
	case csvOut:
		return ModeCSV, nil
	case jsonOut:
		return ModeJSON, nil
	}
	return ModeText, nil
}

// Write renders one result in mode m: t as text or CSV, v as JSON.
func Write(w io.Writer, m Mode, t *Table, v any) error {
	switch m {
	case ModeCSV:
		return t.CSV(w)
	case ModeJSON:
		return JSON(w, v)
	}
	return t.Text(w)
}
