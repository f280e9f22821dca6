package crossbar

import (
	"fmt"
	"math/rand"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

// DiffConfig describes a 2T2R differential crossbar with pre-charge
// sense amplifiers (PCSA), the organization used by the CustBinaryMap
// baseline (Hirtzlin et al., Frontiers in Neuroscience 2020).
//
// Each logical cell is a device pair (d, d̄) storing a bit and its
// complement. One word line is activated per step; the interleaved
// input (x, x̄) gates the bit-line pair, and each PCSA resolves one
// XNOR(x_j, w_j) bit by differential sensing. A digital 5-bit counter
// per column plus a popcount tree then accumulate the row popcount —
// the "additional digital circuitry" TacitMap eliminates (paper §III).
type DiffConfig struct {
	// Rows is the number of word lines (logical weight vectors).
	Rows int
	// Cols is the number of logical columns (bits per weight vector);
	// the physical array is Rows × 2·Cols devices.
	Cols int
	// EPCM holds the device parameters (the baseline is electrical).
	EPCM device.EPCMParams
	// Seed / Ideal as in Config.
	Seed  int64
	Ideal bool
}

// DefaultDiffConfig mirrors DefaultConfig's geometry for the baseline.
func DefaultDiffConfig() DiffConfig {
	return DiffConfig{Rows: 256, Cols: 128, EPCM: device.DefaultEPCMParams()}
}

// Validate checks the configuration.
func (c DiffConfig) Validate() error {
	if c.Rows <= 0 || c.Cols <= 0 {
		return fmt.Errorf("crossbar: non-positive diff dims %dx%d", c.Rows, c.Cols)
	}
	return c.EPCM.Validate()
}

// DiffStats counts events specific to the differential organization.
type DiffStats struct {
	CellWrites     int64 // physical device writes (2 per logical bit)
	RowActivations int64 // sequential word-line steps
	PCSASenses     int64 // sense-amplifier resolutions
}

// Add accumulates other into s.
func (s *DiffStats) Add(o DiffStats) {
	s.CellWrites += o.CellWrites
	s.RowActivations += o.RowActivations
	s.PCSASenses += o.PCSASenses
}

// DiffArray is a programmed 2T2R array. Like Array it stores no
// per-cell objects: the device pair of logical cell (r, c) lives at
// index r*cols+c of two flat conductance planes (posG holds the w
// device, negG the ¬w device). Not safe for concurrent use.
type DiffArray struct {
	cfg        DiffConfig
	rng        *rand.Rand
	rows, cols int
	posG       []float64 // as-programmed conductance of the w devices
	negG       []float64 // as-programmed conductance of the ¬w devices
	bits       *bitops.Matrix
	stats      DiffStats
}

// NewDiffArray allocates an all-zero 2T2R array.
func NewDiffArray(cfg DiffConfig) (*DiffArray, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &DiffArray{cfg: cfg, rows: cfg.Rows, cols: cfg.Cols}
	if !cfg.Ideal {
		a.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	n := cfg.Rows * cfg.Cols
	a.posG = make([]float64, n)
	a.negG = make([]float64, n)
	a.bits = bitops.NewMatrix(cfg.Rows, cfg.Cols)
	a.programAll(a.bits)
	a.stats = DiffStats{}
	return a, nil
}

// Stats returns a copy of the event counters.
func (a *DiffArray) Stats() DiffStats { return a.stats }

// ResetStats zeroes the counters.
func (a *DiffArray) ResetStats() { a.stats = DiffStats{} }

// Program stores the logical bit matrix; each bit programs the (w, ¬w)
// device pair.
func (a *DiffArray) Program(m *bitops.Matrix) error {
	if m.Rows() != a.cfg.Rows || m.Cols() != a.cfg.Cols {
		return fmt.Errorf("crossbar: program %dx%d into diff %dx%d",
			m.Rows(), m.Cols(), a.cfg.Rows, a.cfg.Cols)
	}
	a.programAll(m)
	a.bits.CopyFrom(m)
	return nil
}

// programAll programs every device pair row-major, drawing the w then
// the ¬w variability per cell — the same RNG order as programming one
// device object after another.
func (a *DiffArray) programAll(m *bitops.Matrix) {
	p := a.cfg.EPCM
	idx := 0
	for r := 0; r < a.rows; r++ {
		row := m.RowWords(r)
		for c := 0; c < a.cols; c++ {
			bit := row[c>>6]>>(uint(c)&63)&1 == 1
			a.posG[idx] = p.ProgramConductance(bit, a.rng)
			a.negG[idx] = p.ProgramConductance(!bit, a.rng)
			idx++
		}
	}
	a.stats.CellWrites += 2 * int64(a.rows*a.cols)
}

// ReadRowXnorInto is the allocation-free form of ReadRowXnor: the PCSA
// outputs are written into out (length Cols; nil allocates).
func (a *DiffArray) ReadRowXnorInto(row int, x, out *bitops.Vector) (*bitops.Vector, error) {
	if row < 0 || row >= a.cfg.Rows {
		return nil, fmt.Errorf("crossbar: row %d out of range [0,%d)", row, a.cfg.Rows)
	}
	if x.Len() != a.cfg.Cols {
		return nil, fmt.Errorf("crossbar: input length %d != cols %d", x.Len(), a.cfg.Cols)
	}
	if out == nil {
		out = bitops.NewVector(a.cfg.Cols)
	} else if out.Len() != a.cfg.Cols {
		return nil, fmt.Errorf("crossbar: ReadRowXnorInto dst length %d != cols %d", out.Len(), a.cfg.Cols)
	}
	p := a.cfg.EPCM
	threshold := (p.GOn + p.GOff) / 2 * p.ReadVoltage
	sigma := 0.0
	if a.rng != nil {
		sigma = p.ReadNoiseSigma
	}
	base := row * a.cols
	xw := x.Words()
	ow := out.Words()
	var acc uint64
	for c := 0; c < a.cols; c++ {
		g := a.negG[base+c]
		if xw[c>>6]>>(uint(c)&63)&1 == 1 {
			g = a.posG[base+c]
		}
		if sigma > 0 {
			g *= 1 + a.rng.NormFloat64()*sigma
			if g < 0 {
				g = 0
			}
		}
		if g*p.ReadVoltage > threshold {
			acc |= 1 << (uint(c) & 63)
		}
		if c&63 == 63 {
			ow[c>>6] = acc
			acc = 0
		}
	}
	if a.cols&63 != 0 {
		ow[a.cols>>6] = acc
	}
	a.stats.PCSASenses += int64(a.cols)
	a.stats.RowActivations++
	return out, nil
}
