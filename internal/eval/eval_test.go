package eval

import (
	"strings"
	"testing"

	"einsteinbarrier/internal/report"
)

// textOf renders a table as aligned text.
func textOf(t *testing.T, tb *report.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.Text(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// runOnce caches the default evaluation across tests (it simulates all
// six networks on four designs).
var cachedReport *Report

func runReport(t *testing.T) *Report {
	t.Helper()
	if cachedReport == nil {
		rep, err := Run(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedReport = rep
	}
	return cachedReport
}

func TestRunCoversZoo(t *testing.T) {
	rep := runReport(t)
	if len(rep.Networks) != 6 {
		t.Fatalf("got %d networks", len(rep.Networks))
	}
	for _, n := range rep.Networks {
		if n.LatBaseline <= 0 || n.LatTacit <= 0 || n.LatEB <= 0 || n.LatGPU <= 0 {
			t.Fatalf("%s: non-positive latency", n.Network)
		}
		if n.EnergyBaseline <= 0 || n.EnergyTacit <= 0 || n.EnergyEB <= 0 {
			t.Fatalf("%s: non-positive energy", n.Network)
		}
		if len(n.Results) != 3 {
			t.Fatalf("%s: missing per-design results", n.Network)
		}
	}
}

// TestFig7Bands pins the reproduction of Fig. 7 / §VI-A to the paper's
// observation bands (direction exact, magnitude within a rough factor —
// our substrate is a parameterized simulator, not the authors' testbed).
func TestFig7Bands(t *testing.T) {
	s := runReport(t).summarize()
	checks := []struct {
		name   string
		got    float64
		lo, hi float64
	}{
		{"TacitMap mean speedup (paper ~78x)", s.MeanTacitSpeedup, 35, 170},
		{"TacitMap max speedup (paper ~154x)", s.MaxTacitSpeedup, 75, 320},
		{"EB mean speedup (paper ~1205x)", s.MeanEBSpeedup, 500, 2500},
		{"EB min speedup (paper ~22x)", s.MinEBSpeedup, 10, 50},
		{"EB max speedup (paper ~3113x)", s.MaxEBSpeedup, 1500, 6500},
		{"EB over TacitMap (paper ~15x)", s.MeanEBOverTacit, 7, 32},
	}
	for _, c := range checks {
		if c.got < c.lo || c.got > c.hi {
			t.Errorf("%s: got %.1f, want in [%g, %g]", c.name, c.got, c.lo, c.hi)
		}
	}
}

// TestFig8Bands pins the Fig. 8 / §VI-B energy observations.
func TestFig8Bands(t *testing.T) {
	s := runReport(t).summarize()
	if s.MeanTacitEnergyX < 2.5 || s.MeanTacitEnergyX > 11 {
		t.Errorf("TacitMap energy increase (paper ~5.35x): got %.2f", s.MeanTacitEnergyX)
	}
	if s.MeanEBEnergyGain < 1.1 || s.MeanEBEnergyGain > 4.5 {
		t.Errorf("EB energy gain vs baseline (paper ~1.56x): got %.2f", s.MeanEBEnergyGain)
	}
	if s.MeanEBOverTacitEnergy < 6 || s.MeanEBOverTacitEnergy > 24 {
		t.Errorf("EB energy gain vs TacitMap (paper ~11.94x): got %.2f", s.MeanEBOverTacitEnergy)
	}
}

// TestGPUCrossover pins §VI-A observation 4: Baseline-ePCM beats the
// GPU on the first CNN but loses on MLPs (≈27× on MLP-L).
func TestGPUCrossover(t *testing.T) {
	rep := runReport(t)
	s := rep.summarize()
	if s.BaselineVsGPUBest < 1.5 {
		t.Errorf("baseline should beat the GPU somewhere by ≥1.5x (paper ~4x), best %.2f", s.BaselineVsGPUBest)
	}
	if s.GPUFasterCount == 0 {
		t.Error("GPU should beat the baseline on at least one network")
	}
	for _, n := range rep.Networks {
		if n.Network == "CNN-S" && n.LatGPU <= n.LatBaseline {
			t.Error("baseline must beat the GPU on the first CNN")
		}
		if n.Network == "MLP-L" {
			slower := n.LatBaseline / n.LatGPU
			if slower < 10 || slower > 80 {
				t.Errorf("MLP-L baseline-vs-GPU slowdown %.1f outside [10,80] (paper ~27x)", slower)
			}
		}
	}
}

// TestPerNetworkDirections: every network individually preserves the
// paper's ordering.
func TestPerNetworkDirections(t *testing.T) {
	for _, n := range runReport(t).Networks {
		tacit, eb, _ := n.fig7Speedups()
		if tacit <= 1 {
			t.Errorf("%s: TacitMap speedup %.2f must exceed 1", n.Network, tacit)
		}
		if eb <= tacit {
			t.Errorf("%s: EB speedup %.2f must exceed TacitMap %.2f", n.Network, eb, tacit)
		}
		tn, en := n.fig8Normalized()
		if tn <= 1 {
			t.Errorf("%s: TacitMap normalized energy %.2f must exceed 1", n.Network, tn)
		}
		if en >= tn {
			t.Errorf("%s: EB normalized energy %.2f must be below TacitMap %.2f", n.Network, en, tn)
		}
	}
}

// TestEBBelowWDMCapacity: §VI-A observation 3 — the technology gain of
// EB over TacitMap-ePCM on conv-free MLPs stays below K because a dense
// layer at batch 1 offers a single input vector.
func TestEBBelowWDMCapacity(t *testing.T) {
	rep := runReport(t)
	k := float64(rep.Config.Arch.WDMCapacity)
	for _, n := range rep.Networks {
		if !strings.HasPrefix(n.Network, "MLP") {
			continue
		}
		ratio := n.LatTacit / n.LatEB
		if ratio >= k {
			t.Errorf("%s: EB/Tacit ratio %.1f should stay below K=%g", n.Network, ratio, k)
		}
	}
}

func TestTablesRender(t *testing.T) {
	rep := runReport(t)
	f7 := textOf(t, rep.Fig7())
	for _, frag := range []string{"Fig. 7", "CNN-L", "MLP-L", "MEAN", "GMEAN"} {
		if !strings.Contains(f7, frag) {
			t.Fatalf("Fig7Table missing %q", frag)
		}
	}
	f8 := textOf(t, rep.Fig8())
	if !strings.Contains(f8, "Fig. 8") || !strings.Contains(f8, "EinsteinBarrier") {
		t.Fatal("Fig8Table malformed")
	}
	sum := textOf(t, rep.Observations())
	for _, frag := range []string{"~78x", "~1205x", "~5.35x", "~11.94x"} {
		if !strings.Contains(sum, frag) {
			t.Fatalf("SummaryTable missing paper reference %q", frag)
		}
	}
}

func TestSortedByName(t *testing.T) {
	rep := runReport(t)
	sorted := rep.SortedByName()
	want := []string{"CNN-S", "CNN-M", "CNN-L", "MLP-S", "MLP-M", "MLP-L"}
	for i, n := range sorted {
		if n.Network != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, n.Network, want[i])
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GPU.FP32PerNs = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid GPU model should fail")
	}
	cfg = DefaultConfig()
	cfg.Arch.Nodes = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid arch should fail")
	}
}
