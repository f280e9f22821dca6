package device

import (
	"fmt"
	"math"
	"math/rand"
)

// OPCMParams describes an optical PCM cell population: a GST patch on a
// silicon waveguide whose crystalline/amorphous phase sets the optical
// transmittance seen by a probe wavelength. Binary use (two phases, two
// transmittance levels) is the robust operating point identified by
// Cardoso et al. (DATE 2023) and adopted by the paper.
type OPCMParams struct {
	// THigh is the transmittance of the amorphous (transparent) state.
	// In the crossbar convention used here, logic 1 stores the
	// high-transmittance state so that more light = larger accumulated
	// photocurrent, mirroring the electrical G_on convention.
	THigh float64
	// TLow is the transmittance of the crystalline (absorbing) state.
	TLow float64
	// ProgramSigma is the relative variability of the programmed
	// transmittance (pulse-energy and geometry spread).
	ProgramSigma float64
	// RelIntensityNoise is the laser relative intensity noise (RIN)
	// expressed as a per-read relative sigma at the detection bandwidth.
	RelIntensityNoise float64
	// ShotNoiseFactor scales the √signal shot-noise contribution at the
	// photodetector, in units of the single-cell signal. Zero disables.
	ShotNoiseFactor float64
	// CrossTalkDB is the inter-wavelength crosstalk floor of the WDM
	// (de)multiplexers in dB (negative number, e.g. -30 dB). Used by the
	// photonics package when K > 1 wavelengths share a waveguide.
	CrossTalkDB float64
	// InputPowerMW is the optical probe power per wavelength in mW.
	InputPowerMW float64
	// Responsivity is the photodetector responsivity in A/W.
	Responsivity float64
	// WriteLatencyNs / WriteEnergyPJ cost one phase transition.
	WriteLatencyNs float64
	WriteEnergyPJ  float64
	// ReadLatencyNs is the optical read (settling + detection) time for
	// one VMM/MMM step. Photonic reads are substantially faster than
	// electrical crossbar settling — the source of the extra speedup of
	// EinsteinBarrier beyond WDM (paper §VI-A observation 3).
	ReadLatencyNs float64
}

// DefaultOPCMParams returns literature-typical oPCM constants
// (Feldmann et al., Nature 2021; Ríos et al.).
func DefaultOPCMParams() OPCMParams {
	return OPCMParams{
		THigh:             0.85,
		TLow:              0.10,
		ProgramSigma:      0.01,
		RelIntensityNoise: 0.003,
		ShotNoiseFactor:   0.002,
		CrossTalkDB:       -30,
		InputPowerMW:      0.5,
		Responsivity:      1.0,
		WriteLatencyNs:    200,
		WriteEnergyPJ:     30,
		ReadLatencyNs:     1.0,
	}
}

// Validate checks physical plausibility.
func (p OPCMParams) Validate() error {
	switch {
	case p.THigh <= 0 || p.THigh > 1:
		return fmt.Errorf("device: THigh %g outside (0,1]", p.THigh)
	case p.TLow < 0 || p.TLow >= p.THigh:
		return fmt.Errorf("device: TLow %g must be in [0, THigh)", p.TLow)
	case p.ProgramSigma < 0 || p.RelIntensityNoise < 0 || p.ShotNoiseFactor < 0:
		return fmt.Errorf("device: negative noise parameter")
	case p.CrossTalkDB > 0:
		return fmt.Errorf("device: crosstalk must be ≤ 0 dB, got %g", p.CrossTalkDB)
	case p.InputPowerMW <= 0 || p.Responsivity <= 0:
		return fmt.Errorf("device: optical power and responsivity must be positive")
	}
	return nil
}

// ExtinctionRatioDB returns 10·log10(THigh/TLow), the optical read
// window.
func (p OPCMParams) ExtinctionRatioDB() float64 {
	return 10 * math.Log10(p.THigh/p.TLow)
}

// CrossTalkLinear converts CrossTalkDB to a linear power fraction.
func (p OPCMParams) CrossTalkLinear() float64 {
	return math.Pow(10, p.CrossTalkDB/10)
}

// ProgramTransmittance returns one as-programmed transmittance draw for
// the given binary state: the nominal level (1 → THigh, 0 → TLow) with
// lognormal spread when rng is non-nil, clamped to [0,1]. This is the
// program-time physics behind the flat transmittance planes in
// internal/crossbar; OPCMCell delegates to it, so a plane programmed
// from a given rand stream is bit-identical to the equivalent sequence
// of NewOPCMCell calls.
func (p OPCMParams) ProgramTransmittance(state bool, rng *rand.Rand) float64 {
	mean := p.TLow
	if state {
		mean = p.THigh
	}
	if rng != nil && p.ProgramSigma > 0 {
		mean *= math.Exp(rng.NormFloat64()*p.ProgramSigma - 0.5*p.ProgramSigma*p.ProgramSigma)
	}
	return clamp01(mean)
}

// PhotocurrentFrom returns the photodetector current (A) of a cell with
// as-programmed transmittance t0 when probed at the configured
// per-wavelength power: RIN on the transmittance, then a √signal shot
// noise term at the detector (two rng draws per read when both noise
// terms are enabled — the order the crossbar hot loops preserve).
func (p *OPCMParams) PhotocurrentFrom(t0 float64, rng *rand.Rand) float64 {
	i := p.InputPowerMW * 1e-3 * p.readTransmittance(t0, rng) * p.Responsivity
	if rng != nil && p.ShotNoiseFactor > 0 {
		// Shot noise grows with √signal; expressed relative to the
		// single-cell full-scale signal for simplicity.
		full := p.InputPowerMW * 1e-3 * p.THigh * p.Responsivity
		i += rng.NormFloat64() * p.ShotNoiseFactor * math.Sqrt(math.Max(i, 0)*full)
	}
	return i
}

// readTransmittance applies one per-read laser-RIN draw to the
// as-programmed transmittance t0, clamped to [0,1]. One rng draw iff
// rng ≠ nil and RelIntensityNoise > 0.
func (p OPCMParams) readTransmittance(t0 float64, rng *rand.Rand) float64 {
	if rng != nil && p.RelIntensityNoise > 0 {
		t0 *= 1 + rng.NormFloat64()*p.RelIntensityNoise
	}
	return clamp01(t0)
}

// OPCMCell is one programmed optical PCM patch — a thin wrapper over
// the OPCMParams pure functions, kept for single-device studies and
// tests; the crossbar simulator stores flat per-array planes instead.
type OPCMCell struct {
	params OPCMParams
	state  bool
	t0     float64 // as-programmed transmittance including variability
}

// NewOPCMCell programs an oPCM cell to the given binary state; rng (may
// be nil) supplies programming variability.
func NewOPCMCell(p OPCMParams, state bool, rng *rand.Rand) *OPCMCell {
	return &OPCMCell{params: p, state: state, t0: p.ProgramTransmittance(state, rng)}
}

// Transmittance returns the instantaneous optical transmittance of the
// cell including, if rng is non-nil, per-read laser RIN.
// oPCM has no drift term: the crystalline fraction is stable, one of the
// paper's §II-C arguments for photonic CIM.
func (c *OPCMCell) Transmittance(rng *rand.Rand) float64 {
	return c.params.readTransmittance(c.t0, rng)
}

// Photocurrent returns the photodetector current (A) contributed by the
// cell when probed with the configured per-wavelength power.
func (c *OPCMCell) Photocurrent(rng *rand.Rand) float64 {
	return c.params.PhotocurrentFrom(c.t0, rng)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// SeparationSNR returns the worst-case ratio between the level gap and
// the combined noise sigma for an accumulation of n cells, a quick
// analytic check that a popcount of n remains decodable. It is used by
// tests and by the design-space example to show why binary (not
// multi-level) PCM is the robust choice at high readout bandwidth.
func (p OPCMParams) SeparationSNR(n int) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	gap := p.THigh - p.TLow
	// Noise of a sum of n cells: per-cell RIN is common-mode to first
	// order but programming spread is independent.
	sigma := math.Sqrt(float64(n)) * (p.ProgramSigma*p.THigh + p.RelIntensityNoise*p.THigh)
	if sigma == 0 {
		return math.Inf(1)
	}
	return gap / sigma
}
