// Package device models the non-volatile memory cells underlying the
// simulated crossbars: electronic phase-change memory (ePCM, a resistive
// 1T1R/2T2R cell read electrically) and optical phase-change memory
// (oPCM, a PCM patch on a waveguide read by light transmission).
//
// The paper's evaluation uses proprietary MNEMOSENE ePCM
// characterization data; this package substitutes parameterized models
// with defaults taken from the open literature (see DESIGN.md). All
// constants are exposed through Params structs so a user with real
// characterization data can re-calibrate.
//
// Both technologies are used in *binary* mode in this work: Cardoso et
// al. (DATE 2023) showed multi-level oPCM scalar multiplication loses
// accuracy at realistic noise, while two well-separated levels remain
// robust — exactly the property BNN vectors need (paper §II-C).
package device

import (
	"fmt"
	"math"
	"math/rand"
)

// Technology identifies the physical substrate of a cell or array.
type Technology int

const (
	// EPCM is electronic phase-change memory (resistive read-out).
	EPCM Technology = iota
	// OPCM is optical phase-change memory (transmittance read-out).
	OPCM
)

// String implements fmt.Stringer.
func (t Technology) String() string {
	switch t {
	case EPCM:
		return "ePCM"
	case OPCM:
		return "oPCM"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// EPCMParams describes an electronic PCM cell population.
type EPCMParams struct {
	// GOn is the mean low-resistance (crystalline, SET) conductance in
	// siemens. Default 50 µS.
	GOn float64
	// GOff is the mean high-resistance (amorphous, RESET) conductance in
	// siemens. Default 0.5 µS (100× ratio).
	GOff float64
	// ProgramSigma is the relative (lognormal) programming variability of
	// the SET state; the RESET state uses 2× this value, reflecting the
	// larger spread of amorphous PCM.
	ProgramSigma float64
	// DriftNu is the amorphous resistance drift exponent: at time t the
	// RESET conductance decays as G(t) = G0 · (t/t0)^(-DriftNu). Drift is
	// one of the ePCM design challenges that oPCM avoids (paper §II-C).
	DriftNu float64
	// DriftT0Seconds is the reference time t0 for drift, typically the
	// read-after-program delay used during characterization.
	DriftT0Seconds float64
	// ReadNoiseSigma is the relative 1/f + thermal read-noise applied per
	// read as a Gaussian multiplier on the instantaneous conductance.
	ReadNoiseSigma float64
	// ReadVoltage is the bit-line read voltage in volts.
	ReadVoltage float64
	// SetLatency / ResetLatency are per-cell write latencies in ns.
	SetLatencyNs, ResetLatencyNs float64
	// SetEnergy / ResetEnergy are per-cell write energies in pJ.
	SetEnergyPJ, ResetEnergyPJ float64
}

// DefaultEPCMParams returns literature-typical ePCM constants
// (Ge2Sb2Te5-class devices, e.g. Joshi et al., Nat. Commun. 2020).
func DefaultEPCMParams() EPCMParams {
	// ProgramSigma reflects binary programming with iterative
	// program-and-verify (the standard practice for PCM inference
	// arrays, cf. Joshi et al. 2020): the SET distribution is tightened
	// to ~1%, which keeps a 256-row popcount decodable by a 9-bit ADC.
	return EPCMParams{
		GOn:            50e-6,
		GOff:           0.5e-6,
		ProgramSigma:   0.01,
		DriftNu:        0.05,
		DriftT0Seconds: 1e-6,
		ReadNoiseSigma: 0.003,
		ReadVoltage:    0.2,
		SetLatencyNs:   100,
		ResetLatencyNs: 50,
		SetEnergyPJ:    10,
		ResetEnergyPJ:  15,
	}
}

// Validate checks physical plausibility of the parameters.
func (p EPCMParams) Validate() error {
	switch {
	case p.GOn <= 0 || p.GOff <= 0:
		return fmt.Errorf("device: conductances must be positive (GOn=%g GOff=%g)", p.GOn, p.GOff)
	case p.GOff >= p.GOn:
		return fmt.Errorf("device: GOff (%g) must be below GOn (%g)", p.GOff, p.GOn)
	case p.ProgramSigma < 0 || p.ReadNoiseSigma < 0:
		return fmt.Errorf("device: negative noise sigma")
	case p.DriftNu < 0:
		return fmt.Errorf("device: negative drift exponent")
	case p.ReadVoltage <= 0:
		return fmt.Errorf("device: read voltage must be positive")
	}
	return nil
}

// ProgramConductance returns one as-programmed conductance draw for the
// given binary state: the nominal level (SET → GOn, RESET → GOff) with
// lognormal multiplicative spread when rng is non-nil. The RESET spread
// is 2× ProgramSigma, reflecting the larger variability of amorphous
// PCM. This is the per-cell program-time physics used by the flat
// conductance planes in internal/crossbar; EPCMCell delegates to it, so
// a plane programmed from a given rand stream is bit-identical to the
// equivalent sequence of NewEPCMCell calls.
func (p EPCMParams) ProgramConductance(state bool, rng *rand.Rand) float64 {
	mean, sigma := p.GOff, 2*p.ProgramSigma
	if state {
		mean, sigma = p.GOn, p.ProgramSigma
	}
	if rng != nil && sigma > 0 {
		// Lognormal multiplicative spread around the nominal level.
		return mean * math.Exp(rng.NormFloat64()*sigma-0.5*sigma*sigma)
	}
	return mean
}

// DriftFactor returns the multiplicative conductance decay of a RESET
// (amorphous) cell ageSeconds after programming: (t/t0)^(-ν), or 1
// inside the reference window. SET cells do not drift; callers apply
// the factor only to RESET state.
func (p EPCMParams) DriftFactor(ageSeconds float64) float64 {
	if p.DriftNu <= 0 || ageSeconds <= p.DriftT0Seconds {
		return 1
	}
	return math.Pow(ageSeconds/p.DriftT0Seconds, -p.DriftNu)
}

// readConductance applies one per-read noise draw to the instantaneous
// (already drifted) conductance g: a Gaussian multiplier of relative
// sigma ReadNoiseSigma, clamped at zero. With a nil rng it returns g
// unchanged. One rng draw iff rng ≠ nil and ReadNoiseSigma > 0 — the
// contract the crossbar hot loops inline.
func (p EPCMParams) readConductance(g float64, rng *rand.Rand) float64 {
	if rng != nil && p.ReadNoiseSigma > 0 {
		g *= 1 + rng.NormFloat64()*p.ReadNoiseSigma
		if g < 0 {
			g = 0
		}
	}
	return g
}

// EPCMCell is one programmed electronic PCM device. It is a thin
// wrapper over the EPCMParams pure functions, kept for single-device
// studies and tests; the crossbar simulator stores flat per-array
// planes instead of cell objects.
type EPCMCell struct {
	params EPCMParams
	// programmed target state: true = SET (low resistance / logic 1).
	state bool
	// g0 is the as-programmed conductance including variability.
	g0 float64
	// ageSeconds accumulates time since programming, for drift.
	ageSeconds float64
}

// NewEPCMCell programs a cell to the given binary state using rng for
// programming variability. A nil rng programs the nominal conductance.
func NewEPCMCell(p EPCMParams, state bool, rng *rand.Rand) *EPCMCell {
	return &EPCMCell{params: p, state: state, g0: p.ProgramConductance(state, rng)}
}

// Age advances the cell's post-programming age (drift accumulation).
func (c *EPCMCell) Age(seconds float64) {
	if seconds < 0 {
		panic("device: negative ageing time")
	}
	c.ageSeconds += seconds
}

// Conductance returns the instantaneous conductance in siemens,
// including drift (RESET state only — crystalline PCM barely drifts)
// and, if rng is non-nil, per-read noise.
func (c *EPCMCell) Conductance(rng *rand.Rand) float64 {
	g := c.g0
	if !c.state {
		g *= c.params.DriftFactor(c.ageSeconds)
	}
	return c.params.readConductance(g, rng)
}

// ReadCurrent returns the read current in amperes for the configured
// read voltage (Ohm's law; the crossbar sums these per Kirchhoff).
func (c *EPCMCell) ReadCurrent(rng *rand.Rand) float64 {
	return c.Conductance(rng) * c.params.ReadVoltage
}

// WriteCost returns the latency (ns) and energy (pJ) of programming the
// given state transition.
func (p EPCMParams) WriteCost(toState bool) (latencyNs, energyPJ float64) {
	if toState {
		return p.SetLatencyNs, p.SetEnergyPJ
	}
	return p.ResetLatencyNs, p.ResetEnergyPJ
}
