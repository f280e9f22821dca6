package eval

import (
	"io"

	"einsteinbarrier/internal/report"
)

// Export: machine-readable forms of the evaluation for plotting
// pipelines (the published figures are log-scale bar charts; the CSV
// columns are exactly their series).

// jsonReport is the serialized shape of a Report.
type jsonReport struct {
	Summary  Summary          `json:"summary"`
	Networks []jsonNetworkRow `json:"networks"`
}

type jsonNetworkRow struct {
	Network         string  `json:"network"`
	TacitSpeedup    float64 `json:"fig7_tacit_speedup"`
	EBSpeedup       float64 `json:"fig7_eb_speedup"`
	GPUVsBaseline   float64 `json:"gpu_vs_baseline"`
	TacitNormEnergy float64 `json:"fig8_tacit_norm_energy"`
	EBNormEnergy    float64 `json:"fig8_eb_norm_energy"`
	LatencyBaseline float64 `json:"latency_baseline_ns"`
	LatencyTacit    float64 `json:"latency_tacit_ns"`
	LatencyEB       float64 `json:"latency_eb_ns"`
	LatencyGPU      float64 `json:"latency_gpu_ns"`
	EnergyBaseline  float64 `json:"energy_baseline_pj"`
	EnergyTacit     float64 `json:"energy_tacit_pj"`
	EnergyEB        float64 `json:"energy_eb_pj"`
}

// series returns one row per network in figure order: the Fig. 7 and
// Fig. 8 series plus the raw latencies/energies.
func (r *Report) series() []jsonNetworkRow {
	var out []jsonNetworkRow
	for _, n := range r.SortedByName() {
		tacit, eb, _ := n.fig7Speedups()
		tn, en := n.fig8Normalized()
		out = append(out, jsonNetworkRow{
			n.Network, tacit, eb, n.LatGPU / n.LatBaseline, tn, en,
			n.LatBaseline, n.LatTacit, n.LatEB, n.LatGPU,
			n.EnergyBaseline, n.EnergyTacit, n.EnergyEB,
		})
	}
	return out
}

// WriteCSV emits one row per network with the Fig. 7 and Fig. 8 series
// plus the raw latencies/energies.
func (r *Report) WriteCSV(w io.Writer) error {
	t := &report.Table{}
	for _, k := range []string{
		"network",
		"fig7_tacit_speedup", "fig7_eb_speedup", "gpu_vs_baseline",
		"fig8_tacit_norm_energy", "fig8_eb_norm_energy",
		"latency_baseline_ns", "latency_tacit_ns", "latency_eb_ns", "latency_gpu_ns",
		"energy_baseline_pj", "energy_tacit_pj", "energy_eb_pj",
	} {
		t.Cols = append(t.Cols, report.Col{Key: k})
	}
	for _, n := range r.series() {
		t.Add(n.Network, n.TacitSpeedup, n.EBSpeedup, n.GPUVsBaseline, n.TacitNormEnergy, n.EBNormEnergy,
			n.LatencyBaseline, n.LatencyTacit, n.LatencyEB, n.LatencyGPU,
			n.EnergyBaseline, n.EnergyTacit, n.EnergyEB)
	}
	return t.CSV(w)
}

// WriteJSON emits the summary and per-network rows as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	return report.JSON(w, jsonReport{Summary: r.summarize(), Networks: r.series()})
}
