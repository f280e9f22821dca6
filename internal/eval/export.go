package eval

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
)

// Export: machine-readable forms of the evaluation for plotting
// pipelines (the published figures are log-scale bar charts; the CSV
// columns are exactly their series).

// WriteCSV emits one row per network with the Fig. 7 and Fig. 8 series
// plus the raw latencies/energies.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"network",
		"fig7_tacit_speedup", "fig7_eb_speedup", "gpu_vs_baseline",
		"fig8_tacit_norm_energy", "fig8_eb_norm_energy",
		"latency_baseline_ns", "latency_tacit_ns", "latency_eb_ns", "latency_gpu_ns",
		"energy_baseline_pj", "energy_tacit_pj", "energy_eb_pj",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for _, n := range r.SortedByName() {
		tacit, eb, _ := n.Fig7Speedups()
		tn, en := n.Fig8Normalized()
		row := []string{
			n.Network,
			f(tacit), f(eb), f(n.LatGPU / n.LatBaseline),
			f(tn), f(en),
			f(n.LatBaseline), f(n.LatTacit), f(n.LatEB), f(n.LatGPU),
			f(n.EnergyBaseline), f(n.EnergyTacit), f(n.EnergyEB),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

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

// WriteJSON emits the summary and per-network rows as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	out := jsonReport{Summary: r.Summarize()}
	for _, n := range r.SortedByName() {
		tacit, eb, _ := n.Fig7Speedups()
		tn, en := n.Fig8Normalized()
		out.Networks = append(out.Networks, jsonNetworkRow{
			Network:         n.Network,
			TacitSpeedup:    tacit,
			EBSpeedup:       eb,
			GPUVsBaseline:   n.LatGPU / n.LatBaseline,
			TacitNormEnergy: tn,
			EBNormEnergy:    en,
			LatencyBaseline: n.LatBaseline,
			LatencyTacit:    n.LatTacit,
			LatencyEB:       n.LatEB,
			LatencyGPU:      n.LatGPU,
			EnergyBaseline:  n.EnergyBaseline,
			EnergyTacit:     n.EnergyTacit,
			EnergyEB:        n.EnergyEB,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
