// Package energy holds the per-event latency and energy cost tables the
// architecture simulator uses to turn counted hardware events into
// time and energy. The paper obtained these numbers from MNEMOSENE ePCM
// characterization and Synopsys synthesis; here they are explicit,
// literature-derived parameters (see DESIGN.md) that a user can
// re-calibrate. The photonic static powers implement the paper's
// Eq. (2) (TIAs) and Eq. (3) (transmitter).
package energy

import (
	"fmt"

	"einsteinbarrier/internal/photonics"
)

// CostParams is the complete cost table for one technology point.
type CostParams struct {
	// --- latencies (ns) ---

	// RowStepNs is one CustBinaryMap step: word-line activation, PCSA
	// sensing of all columns, and the local 5-bit counters (the digital
	// popcount tree is pipelined behind it).
	RowStepNs float64
	// SettleENs is the analog settling time of an ePCM crossbar VMM.
	SettleENs float64
	// SettleONs is the optical settling/propagation time of an oPCM
	// crossbar read — photonic reads are near-speed-of-light and fast
	// photodetectors follow at GHz rates.
	SettleONs float64
	// ADCENs is one conversion of the ePCM readout ADC (SAR-type).
	ADCENs float64
	// ADCONs is one conversion of the oPCM readout chain (TIA + fast
	// flash ADC, required anyway at photonic line rates).
	ADCONs float64
	// DigitalAddNs is one partial-popcount add in the ECore.
	DigitalAddNs float64
	// PopcountTreeNs is one pass of the baseline's global popcount tree.
	PopcountTreeNs float64
	// LayerOverheadNs is the fixed per-layer cost on the CIM designs:
	// instruction dispatch, operand steering, receiver-buffer drain and
	// the NoC transfer of activations to the next layer's tiles.
	LayerOverheadNs float64

	// --- energies (pJ) ---

	// PCSADevicePJ is the per-device energy of a pre-charge sense: the
	// 2T2R baseline senses 2·m devices per row step. SAs are cheap —
	// the baseline's energy advantage (paper §VI-B observation 1).
	PCSADevicePJ float64
	// CounterPJ is the per-step energy of the baseline's local 5-bit
	// counters + popcount-tree slice.
	CounterPJ float64
	// CellReadEPJ is the per-cell energy of an ePCM VMM: the cell
	// conducts at the read voltage for the full settling window, far
	// costlier than a transient PCSA sense.
	CellReadEPJ float64
	// CellReadOPJ is the per-cell optical absorption/pass energy of an
	// oPCM read (the 1 ns window; laser power is priced separately).
	CellReadOPJ float64
	// ADCEPJ / ADCOPJ per conversion; ADCs are the power-hungry part of
	// TacitMap's readout (paper §VI-B observation 1).
	ADCEPJ float64
	ADCOPJ float64
	// DACPJ per driven-row conversion.
	DACPJ float64
	// DigitalAddPJ and PopcountPJ per digital op.
	DigitalAddPJ float64
	PopcountPJ   float64
	// LayerOverheadPJ per layer (control, buffers, NoC).
	LayerOverheadPJ float64

	// --- static powers (mW) ---

	// TIAPowerMW per receiver column (Eq. (2) uses 2 mW each).
	TIAPowerMW float64
	// TIAEnergyPJ is the energy of one TIA conversion slot (the TIA is
	// powered while its column's sample is deserialized).
	TIAEnergyPJ float64
	// LaserPowerMW is the transmitter pump (part of Eq. (3)).
	LaserPowerMW float64
}

// DefaultCostParams returns the evaluation defaults. Latency anchors:
// PCSA row reads are SRAM-like (~10 ns); ePCM VMM settling is ~100 ns
// (ISAAC/PUMA-class); SAR ADC conversions ~15 ns; photonic reads settle
// in ~1 ns with ~5 ns conversion lanes. Energy anchors: SA sense ≈
// 50 fJ/column, SAR ADC ≈ 2 pJ, DAC ≈ 0.2 pJ, array activation a few
// tens of pJ.
func DefaultCostParams() CostParams {
	return CostParams{
		RowStepNs:       10,
		SettleENs:       100,
		SettleONs:       1,
		ADCENs:          15,
		ADCONs:          5,
		DigitalAddNs:    0.5,
		PopcountTreeNs:  2,
		LayerOverheadNs: 500,

		PCSADevicePJ:    0.03,
		CounterPJ:       0.4,
		CellReadEPJ:     1.5,
		CellReadOPJ:     0.15,
		ADCEPJ:          3.0,
		ADCOPJ:          3.0,
		DACPJ:           0.2,
		DigitalAddPJ:    0.05,
		PopcountPJ:      0.4,
		LayerOverheadPJ: 1500,

		TIAPowerMW:   photonics.TIAPowerMW,
		TIAEnergyPJ:  6.0,
		LaserPowerMW: 100,
	}
}

// Validate rejects non-physical tables.
func (c CostParams) Validate() error {
	pos := map[string]float64{
		"RowStepNs": c.RowStepNs, "SettleENs": c.SettleENs, "SettleONs": c.SettleONs,
		"ADCENs": c.ADCENs, "ADCONs": c.ADCONs,
		"PCSADevicePJ": c.PCSADevicePJ, "CellReadEPJ": c.CellReadEPJ,
		"CellReadOPJ": c.CellReadOPJ,
		"ADCEPJ":      c.ADCEPJ, "ADCOPJ": c.ADCOPJ,
	}
	for name, v := range pos {
		if v <= 0 {
			return fmt.Errorf("energy: %s must be positive, got %g", name, v)
		}
	}
	nonneg := map[string]float64{
		"DigitalAddNs": c.DigitalAddNs, "PopcountTreeNs": c.PopcountTreeNs,
		"LayerOverheadNs": c.LayerOverheadNs, "DACPJ": c.DACPJ,
		"DigitalAddPJ": c.DigitalAddPJ, "PopcountPJ": c.PopcountPJ,
		"LayerOverheadPJ": c.LayerOverheadPJ, "TIAPowerMW": c.TIAPowerMW,
		"LaserPowerMW": c.LaserPowerMW, "CounterPJ": c.CounterPJ,
		"TIAEnergyPJ": c.TIAEnergyPJ,
	}
	for name, v := range nonneg {
		if v < 0 {
			return fmt.Errorf("energy: %s must be non-negative, got %g", name, v)
		}
	}
	return nil
}

// WithADCResolutionScale returns a copy of the table with the
// electronic readout scaled for a higher-resolution conversion: a
// design that decodes more levels per cell (see device.MLCParams)
// needs extra ADC bits, which cost conversion time (latFactor) and
// energy (energyFactor — each extra SAR bit roughly doubles the
// converter energy). This is the standard cost hook for registry
// designs that trade cell density against readout precision.
func (c CostParams) WithADCResolutionScale(latFactor, energyFactor float64) CostParams {
	c.ADCENs *= latFactor
	c.ADCEPJ *= energyFactor
	return c
}

// VMMStepENs is the latency of one ePCM TacitMap VMM step including the
// shared-ADC readout rounds.
func (c CostParams) VMMStepENs(adcRounds int) float64 {
	return c.SettleENs + float64(adcRounds)*c.ADCENs
}

// VMMStepONs is the latency of one oPCM VMM/MMM step (K wavelengths are
// detected by parallel TIA lanes, so K does not appear here — the
// paper's deserializing-receiver design, §IV-A1).
func (c CostParams) VMMStepONs(adcRounds int) float64 {
	return c.SettleONs + float64(adcRounds)*c.ADCONs
}

// TransmitterPowerMW returns the paper's Eq. (3) transmitter power for
// WDM capacity k driving `rows` modulated rows (laser + modulators +
// tuning). Only the rows a layer actually drives are modulated.
func (c CostParams) TransmitterPowerMW(k, rows int) float64 {
	tx := photonics.DefaultTransmitterConfig(k, rows)
	tx.LaserPowerMW = c.LaserPowerMW
	return tx.TransmitterPowerMW()
}

// StaticOpticalPowerMW returns the total static optical power of one
// oPCM ECore per the paper's Eq. (2) + Eq. (3): N column TIAs plus the
// transmitter (laser, modulators, tuning) for capacity K and M rows.
func (c CostParams) StaticOpticalPowerMW(rows, cols, k int) float64 {
	return photonics.CrossbarTIAPowerMW(cols) + c.TransmitterPowerMW(k, rows)
}

// Breakdown is an energy report by component.
type Breakdown struct {
	CrossbarPJ float64 // array activations (rows driven, cells read)
	ADCPJ      float64
	DACPJ      float64
	SensePJ    float64 // PCSA row steps
	DigitalPJ  float64 // adds + popcount trees
	ControlPJ  float64 // per-layer overheads
	StaticPJ   float64 // optical static power × busy time
}

// TotalPJ sums the breakdown.
func (b Breakdown) TotalPJ() float64 {
	return b.CrossbarPJ + b.ADCPJ + b.DACPJ + b.SensePJ + b.DigitalPJ + b.ControlPJ + b.StaticPJ
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.CrossbarPJ += o.CrossbarPJ
	b.ADCPJ += o.ADCPJ
	b.DACPJ += o.DACPJ
	b.SensePJ += o.SensePJ
	b.DigitalPJ += o.DigitalPJ
	b.ControlPJ += o.ControlPJ
	b.StaticPJ += o.StaticPJ
}
