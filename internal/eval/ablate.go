package eval

import (
	"fmt"

	"einsteinbarrier/internal/report"
)

// Ablations: the design-choice sweeps DESIGN.md calls out, exposed as
// first-class API so studies are reproducible rather than ad-hoc flag
// combinations.

// AblationPoint is one configuration of a sweep with its headline
// results.
type AblationPoint struct {
	// Label identifies the point (e.g. "K=8" or "cols/adc=16").
	Label string
	// MeanTacitSpeedup / MeanEBSpeedup over the zoo.
	MeanTacitSpeedup, MeanEBSpeedup float64
	// MeanEBOverTacit isolates the technology gain.
	MeanEBOverTacit float64
	// MeanTacitEnergyX / MeanEBEnergyGain are the Fig. 8 aggregates.
	MeanTacitEnergyX, MeanEBEnergyGain float64
}

func pointFrom(label string, rep *Report) AblationPoint {
	s := rep.summarize()
	return AblationPoint{
		Label:            label,
		MeanTacitSpeedup: s.MeanTacitSpeedup,
		MeanEBSpeedup:    s.MeanEBSpeedup,
		MeanEBOverTacit:  s.MeanEBOverTacit,
		MeanTacitEnergyX: s.MeanTacitEnergyX,
		MeanEBEnergyGain: s.MeanEBEnergyGain,
	}
}

// AblateWDMCapacity sweeps K (paper §IV-A2 / §VI-A observation 3).
func AblateWDMCapacity(base Config, ks []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, k := range ks {
		cfg := base
		cfg.Arch.WDMCapacity = k
		rep, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: K=%d: %w", k, err)
		}
		out = append(out, pointFrom(fmt.Sprintf("K=%d", k), rep))
	}
	return out, nil
}

// AblateColumnsPerADC sweeps the readout sharing factor (the paper's
// footnote-1 idealization knob).
func AblateColumnsPerADC(base Config, shares []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, s := range shares {
		cfg := base
		cfg.Arch.ColumnsPerADC = s
		rep, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: cols/adc=%d: %w", s, err)
		}
		out = append(out, pointFrom(fmt.Sprintf("cols/adc=%d", s), rep))
	}
	return out, nil
}

// AblateCrossbarSize sweeps the (square) array dimension.
func AblateCrossbarSize(base Config, sizes []int) ([]AblationPoint, error) {
	var out []AblationPoint
	for _, n := range sizes {
		cfg := base
		cfg.Arch.CrossbarRows = n
		cfg.Arch.CrossbarCols = n
		if cfg.Arch.ColumnsPerADC > n {
			cfg.Arch.ColumnsPerADC = n
		}
		rep, err := Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: size=%d: %w", n, err)
		}
		out = append(out, pointFrom(fmt.Sprintf("size=%d", n), rep))
	}
	return out, nil
}

// Ablation renders points as a titled table.
func Ablation(title string, points []AblationPoint) *report.Table {
	t := &report.Table{Title: title, Cols: []report.Col{{Head: "point"},
		{Head: "tacit x", Fmt: "%.1fx"}, {Head: "eb x", Fmt: "%.1fx"}, {Head: "eb/tacit", Fmt: "%.1fx"},
		{Head: "tacit energy", Fmt: "%.2fx"}, {Head: "eb energy gain", Fmt: "%.2fx"}}}
	for _, p := range points {
		t.Add(p.Label, p.MeanTacitSpeedup, p.MeanEBSpeedup, p.MeanEBOverTacit, p.MeanTacitEnergyX, p.MeanEBEnergyGain)
	}
	return t
}
