package eval

import (
	"strings"
	"testing"
)

func TestAblateWDMCapacityMonotone(t *testing.T) {
	points, err := AblateWDMCapacity(DefaultConfig(), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// EB speedup must grow with K; TacitMap must be K-independent.
	if !(points[0].MeanEBSpeedup < points[1].MeanEBSpeedup &&
		points[1].MeanEBSpeedup < points[2].MeanEBSpeedup) {
		t.Fatalf("EB speedup not monotone in K: %+v", points)
	}
	for i := 1; i < 3; i++ {
		if points[i].MeanTacitSpeedup != points[0].MeanTacitSpeedup {
			t.Fatal("TacitMap-ePCM must not depend on K")
		}
	}
	// EB energy improves with K (fewer activations).
	if points[2].MeanEBEnergyGain <= points[0].MeanEBEnergyGain {
		t.Fatal("EB energy gain must grow with K")
	}
}

func TestAblateColumnsPerADC(t *testing.T) {
	points, err := AblateColumnsPerADC(DefaultConfig(), []int{1, 8, 32})
	if err != nil {
		t.Fatal(err)
	}
	// More sharing → slower VMM readout → smaller Tacit speedup.
	if !(points[0].MeanTacitSpeedup > points[1].MeanTacitSpeedup &&
		points[1].MeanTacitSpeedup > points[2].MeanTacitSpeedup) {
		t.Fatalf("Tacit speedup should fall with ADC sharing: %+v", points)
	}
}

func TestAblateCrossbarSize(t *testing.T) {
	points, err := AblateCrossbarSize(DefaultConfig(), []int{128, 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	for _, p := range points {
		if p.MeanTacitSpeedup <= 1 || p.MeanEBSpeedup <= p.MeanTacitSpeedup {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestAblationTableRenders(t *testing.T) {
	points, err := AblateWDMCapacity(DefaultConfig(), []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	s := textOf(t, Ablation("WDM sweep", points))
	for _, frag := range []string{"WDM sweep", "K=1", "K=16", "eb/tacit"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("table missing %q", frag)
		}
	}
}
