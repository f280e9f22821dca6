package energy

import (
	"einsteinbarrier/internal/device"
)

// ReprogramCost prices one full crossbar recalibration pass from the
// per-cell write counts a Reprogram call reports. Energy is the sum of
// per-cell write energies; latency assumes row-parallel programming
// (all cells of a row written together, SET and RESET pulses
// interleaved), so the time is writeRounds × the slower pulse. For
// ePCM, setWrites cells take the SET pulse and resetWrites the RESET
// pulse; oPCM prices every write with the single phase-transition cost
// (pass setWrites+resetWrites as setWrites and 0 resets, or split —
// only the sum matters).
type ReprogramCost struct {
	SetWrites   int64
	ResetWrites int64
	EnergyPJ    float64
	LatencyNs   float64
}

// reprogramEPCM prices an ePCM recalibration: setWrites SET pulses and
// resetWrites RESET pulses over a rows-tall array (rows ≤ 0 is treated
// as 1, i.e. fully serial programming).
func reprogramEPCM(setWrites, resetWrites int64, rows int, p device.EPCMParams) ReprogramCost {
	if rows <= 0 {
		rows = 1
	}
	c := ReprogramCost{SetWrites: setWrites, ResetWrites: resetWrites}
	c.EnergyPJ = float64(setWrites)*p.SetEnergyPJ + float64(resetWrites)*p.ResetEnergyPJ
	// Row-parallel programming: ceil(writes/rows) pulse rounds per kind.
	setRounds := (setWrites + int64(rows) - 1) / int64(rows)
	resetRounds := (resetWrites + int64(rows) - 1) / int64(rows)
	c.LatencyNs = float64(setRounds)*p.SetLatencyNs + float64(resetRounds)*p.ResetLatencyNs
	return c
}

// reprogramOPCM prices an oPCM recalibration: every cell write is one
// phase transition regardless of direction.
func reprogramOPCM(setWrites, resetWrites int64, rows int, p device.OPCMParams) ReprogramCost {
	if rows <= 0 {
		rows = 1
	}
	c := ReprogramCost{SetWrites: setWrites, ResetWrites: resetWrites}
	writes := setWrites + resetWrites
	c.EnergyPJ = float64(writes) * p.WriteEnergyPJ
	rounds := (writes + int64(rows) - 1) / int64(rows)
	c.LatencyNs = float64(rounds) * p.WriteLatencyNs
	return c
}

// ReprogramForTech dispatches on the technology of the given array
// configuration-style inputs.
func ReprogramForTech(tech device.Technology, setWrites, resetWrites int64, rows int,
	epcm device.EPCMParams, opcm device.OPCMParams) ReprogramCost {
	if tech == device.OPCM {
		return reprogramOPCM(setWrites, resetWrites, rows, opcm)
	}
	return reprogramEPCM(setWrites, resetWrites, rows, epcm)
}
