package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"einsteinbarrier/internal/arch"
)

// TestFig78GoldenBitIdentical pins the Fig. 7/8 series — every latency,
// energy and derived ratio for the four paper designs (three CIM + GPU)
// — to the CSV captured from the pre-registry, pre-pipeline serial
// simulator. The refactor must not move a single bit.
func TestFig78GoldenBitIdentical(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "fig78_pre_pr3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rep := runReport(t)
	var got bytes.Buffer
	if err := rep.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Fig. 7/8 CSV diverged from the pinned golden:\n--- want ---\n%s\n--- got ---\n%s",
			want, got.Bytes())
	}
}

// TestRunWithRegistryDesigns: the registry-added designs run end to end
// through eval.Run, riding along the paper set.
func TestRunWithRegistryDesigns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Designs = []arch.Design{
		arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier,
		arch.MLCEPCM, arch.EinsteinBarrierK64,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range rep.Networks {
		if len(n.Results) != 5 {
			t.Fatalf("%s: %d per-design results, want 5", n.Network, len(n.Results))
		}
		for _, d := range cfg.Designs {
			r := n.Results[d]
			if r == nil || r.LatencyNs <= 0 || r.EnergyPJ() <= 0 {
				t.Fatalf("%s/%v: missing or non-positive result", n.Network, d)
			}
		}
		// The figure columns must be untouched by the ride-alongs.
		if n.LatBaseline != n.Results[arch.BaselineEPCM].LatencyNs ||
			n.LatEB != n.Results[arch.EinsteinBarrier].LatencyNs {
			t.Fatalf("%s: figure series corrupted by extra designs", n.Network)
		}
	}
}

// TestRunRejectsDesignSetWithoutPaperTrio: the figure series are
// normalized to Baseline-ePCM, so dropping a paper design is an error.
func TestRunRejectsDesignSetWithoutPaperTrio(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Designs = []arch.Design{arch.TacitEPCM, arch.EinsteinBarrier}
	if _, err := Run(cfg); err == nil {
		t.Fatal("design set without Baseline-ePCM must error")
	}
	cfg.Designs = []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier, arch.Design(99)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unregistered design must error")
	}
}
