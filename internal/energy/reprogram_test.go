package energy

import (
	"testing"

	"einsteinbarrier/internal/device"
)

func TestReprogramEPCMPricing(t *testing.T) {
	p := device.DefaultEPCMParams()
	c := reprogramEPCM(100, 50, 10, p)
	wantE := 100*p.SetEnergyPJ + 50*p.ResetEnergyPJ
	if c.EnergyPJ != wantE {
		t.Fatalf("energy %g want %g", c.EnergyPJ, wantE)
	}
	// Row-parallel: ⌈100/10⌉ SET rounds + ⌈50/10⌉ RESET rounds.
	wantL := 10*p.SetLatencyNs + 5*p.ResetLatencyNs
	if c.LatencyNs != wantL {
		t.Fatalf("latency %g want %g", c.LatencyNs, wantL)
	}
	if c.SetWrites+c.ResetWrites != 150 {
		t.Fatalf("total writes %d want 150", c.SetWrites+c.ResetWrites)
	}
	// rows ≤ 0 degrades to fully serial programming.
	serial := reprogramEPCM(3, 2, 0, p)
	if serial.LatencyNs != 3*p.SetLatencyNs+2*p.ResetLatencyNs {
		t.Fatalf("serial latency %g", serial.LatencyNs)
	}
}

func TestReprogramOPCMPricing(t *testing.T) {
	p := device.DefaultOPCMParams()
	c := reprogramOPCM(7, 3, 4, p)
	if c.EnergyPJ != 10*p.WriteEnergyPJ {
		t.Fatalf("energy %g want %g", c.EnergyPJ, 10*p.WriteEnergyPJ)
	}
	if c.LatencyNs != 3*p.WriteLatencyNs { // ⌈10/4⌉ rounds
		t.Fatalf("latency %g want %g", c.LatencyNs, 3*p.WriteLatencyNs)
	}
}

func TestReprogramForTechDispatchAndAdd(t *testing.T) {
	ep, op := device.DefaultEPCMParams(), device.DefaultOPCMParams()
	e := ReprogramForTech(device.EPCM, 5, 5, 1, ep, op)
	if e.EnergyPJ != 5*ep.SetEnergyPJ+5*ep.ResetEnergyPJ {
		t.Fatalf("ePCM dispatch priced %g", e.EnergyPJ)
	}
	o := ReprogramForTech(device.OPCM, 5, 5, 1, ep, op)
	if o.EnergyPJ != 10*op.WriteEnergyPJ {
		t.Fatalf("oPCM dispatch priced %g", o.EnergyPJ)
	}
}
