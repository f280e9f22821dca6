package device

import (
	"fmt"
	"math"
	"math/rand"
)

// Multi-level-cell (MLC) support. The paper uses PCM strictly in binary
// mode and leaves multi-bit cells as future work (§VI-C), citing
// Cardoso et al. (DATE 2023): at realistic noise, multi-level oPCM
// scalar multiplication loses accuracy, while two well-separated levels
// stay robust. This file implements that trade-off quantitatively: an
// L-level cell model plus the analytic and Monte-Carlo decode error
// rates that justify the binary choice (and let a user explore the
// future-work direction).

// MLCParams describes an L-level PCM cell population. It generalizes
// both technologies: Low/High are conductances (S) for ePCM or
// transmittances for oPCM; only ratios matter for decoding.
type MLCParams struct {
	// Levels is the number of programmable levels L ≥ 2 (L = 2 is the
	// paper's binary operating point).
	Levels int
	// Low and High bound the programmable range; intermediate levels
	// are spaced uniformly (amorphous-fraction control).
	Low, High float64
	// ProgramSigma is the relative programming spread per level.
	ProgramSigma float64
	// ReadNoiseSigma is the relative per-read noise.
	ReadNoiseSigma float64
}

// DefaultMLCParams returns an L-level population matching the binary
// oPCM defaults' range and noise.
func DefaultMLCParams(levels int) MLCParams {
	return MLCParams{
		Levels:         levels,
		Low:            0.10,
		High:           0.85,
		ProgramSigma:   0.01,
		ReadNoiseSigma: 0.003,
	}
}

// Validate checks the parameters.
func (p MLCParams) Validate() error {
	switch {
	case p.Levels < 2:
		return fmt.Errorf("device: MLC needs ≥ 2 levels, got %d", p.Levels)
	case p.Low < 0 || p.High <= p.Low:
		return fmt.Errorf("device: bad MLC range [%g, %g]", p.Low, p.High)
	case p.ProgramSigma < 0 || p.ReadNoiseSigma < 0:
		return fmt.Errorf("device: negative MLC noise")
	}
	return nil
}

// levelValue returns the nominal analog value of level l ∈ [0, Levels).
func (p MLCParams) levelValue(l int) float64 {
	if l < 0 || l >= p.Levels {
		panic(fmt.Sprintf("device: level %d outside [0,%d)", l, p.Levels))
	}
	if p.Levels == 1 {
		return p.Low
	}
	step := (p.High - p.Low) / float64(p.Levels-1)
	return p.Low + float64(l)*step
}

// BitsPerCell returns how many weight-bit slices one L-level cell
// stores: floor(log2(Levels)) — 1 for binary operation, 2 for the
// four-level population, and so on. This is the density lever a
// multi-level design buys with its decode-error budget (see
// RobustLevelLimit).
func (p MLCParams) BitsPerCell() int {
	bits := int(math.Floor(math.Log2(float64(p.Levels))))
	if bits < 1 {
		return 1
	}
	return bits
}

// levelGap returns the spacing between adjacent nominal levels.
func (p MLCParams) levelGap() float64 {
	return (p.High - p.Low) / float64(p.Levels-1)
}

// MLCCell is one programmed multi-level cell.
type MLCCell struct {
	params MLCParams
	level  int
	v0     float64
}

// newMLCCell programs a cell to the given level; rng (may be nil)
// supplies programming variability.
func newMLCCell(p MLCParams, level int, rng *rand.Rand) *MLCCell {
	c := &MLCCell{params: p, level: level, v0: p.levelValue(level)}
	if rng != nil && p.ProgramSigma > 0 {
		c.v0 *= math.Exp(rng.NormFloat64()*p.ProgramSigma - 0.5*p.ProgramSigma*p.ProgramSigma)
	}
	return c
}

// read returns the instantaneous analog value with per-read noise.
func (c *MLCCell) read(rng *rand.Rand) float64 {
	v := c.v0
	if rng != nil && c.params.ReadNoiseSigma > 0 {
		v *= 1 + rng.NormFloat64()*c.params.ReadNoiseSigma
	}
	return v
}

// decode maps an analog value back to the nearest level.
func (p MLCParams) decode(v float64) int {
	step := p.levelGap()
	l := int(math.Round((v - p.Low) / step))
	if l < 0 {
		l = 0
	}
	if l >= p.Levels {
		l = p.Levels - 1
	}
	return l
}

// AnalyticErrorRate estimates the per-read single-cell decode error
// probability for a uniformly random programmed level. Noise is
// multiplicative (programming spread ⊕ read noise, combined in
// quadrature), so each level l has σ_l = value_l·σ_rel and errs when
// the read leaves its ±gap/2 decision window (one-sided at the edge
// levels).
func (p MLCParams) AnalyticErrorRate() float64 {
	rel := math.Sqrt(p.ProgramSigma*p.ProgramSigma + p.ReadNoiseSigma*p.ReadNoiseSigma)
	if rel == 0 {
		return 0
	}
	half := p.levelGap() / 2
	total := 0.0
	for l := 0; l < p.Levels; l++ {
		sigma := p.levelValue(l) * rel
		if sigma == 0 {
			continue
		}
		tail := 0.5 * math.Erfc(half/sigma/math.Sqrt2)
		if l == 0 || l == p.Levels-1 {
			total += tail // can only err inward
		} else {
			total += 2 * tail
		}
	}
	return total / float64(p.Levels)
}

// MonteCarloErrorRate measures the decode error rate over trials
// programmed to uniformly random levels.
func (p MLCParams) MonteCarloErrorRate(trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	errs := 0
	for i := 0; i < trials; i++ {
		l := rng.Intn(p.Levels)
		cell := newMLCCell(p, l, rng)
		if p.decode(cell.read(rng)) != l {
			errs++
		}
	}
	return float64(errs) / float64(trials)
}

// RobustLevelLimit returns the largest level count whose analytic
// decode error rate stays below maxErr at these noise parameters — the
// quantitative version of the paper's §II-C argument: at realistic
// noise the answer is small, and binary (L = 2) is the safe choice.
func (p MLCParams) RobustLevelLimit(maxErr float64) int {
	best := 1
	for l := 2; l <= 64; l++ {
		q := p
		q.Levels = l
		if q.AnalyticErrorRate() <= maxErr {
			best = l
		} else {
			break
		}
	}
	return best
}
