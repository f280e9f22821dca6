package device

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultEPCMParamsValid(t *testing.T) {
	if err := DefaultEPCMParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEPCMValidateRejectsBadParams(t *testing.T) {
	cases := []func(*EPCMParams){
		func(p *EPCMParams) { p.GOn = 0 },
		func(p *EPCMParams) { p.GOff = -1 },
		func(p *EPCMParams) { p.GOff = p.GOn * 2 },
		func(p *EPCMParams) { p.ProgramSigma = -0.1 },
		func(p *EPCMParams) { p.DriftNu = -1 },
		func(p *EPCMParams) { p.ReadVoltage = 0 },
	}
	for i, mutate := range cases {
		p := DefaultEPCMParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestEPCMCellNominalStates(t *testing.T) {
	p := DefaultEPCMParams()
	on := NewEPCMCell(p, true, nil)
	off := NewEPCMCell(p, false, nil)
	if got := on.Conductance(nil); got != p.GOn {
		t.Fatalf("SET conductance = %g, want %g", got, p.GOn)
	}
	if got := off.Conductance(nil); got != p.GOff {
		t.Fatalf("RESET conductance = %g, want %g", got, p.GOff)
	}
}

func TestEPCMOnOffSeparationUnderVariability(t *testing.T) {
	// With default variability, SET and RESET populations must remain
	// separable — the essence of binary PCM robustness.
	p := DefaultEPCMParams()
	rng := rand.New(rand.NewSource(42))
	minOn, maxOff := math.Inf(1), math.Inf(-1)
	for i := 0; i < 2000; i++ {
		gOn := NewEPCMCell(p, true, rng).Conductance(rng)
		gOff := NewEPCMCell(p, false, rng).Conductance(rng)
		minOn = math.Min(minOn, gOn)
		maxOff = math.Max(maxOff, gOff)
	}
	if minOn <= maxOff {
		t.Fatalf("ON/OFF populations overlap: minOn=%g maxOff=%g", minOn, maxOff)
	}
	if ratio := minOn / maxOff; ratio < 5 {
		t.Fatalf("worst-case read window %g too small", ratio)
	}
}

func TestEPCMDriftMonotone(t *testing.T) {
	p := DefaultEPCMParams()
	cell := NewEPCMCell(p, false, nil)
	g0 := cell.Conductance(nil)
	cell.Age(1.0) // 1 s after programming
	g1 := cell.Conductance(nil)
	cell.Age(3600)
	g2 := cell.Conductance(nil)
	if !(g0 > g1 && g1 > g2) {
		t.Fatalf("RESET drift not monotone: %g %g %g", g0, g1, g2)
	}
	// Crystalline state must not drift.
	on := NewEPCMCell(p, true, nil)
	on.Age(3600)
	if on.Conductance(nil) != p.GOn {
		t.Fatal("SET state drifted")
	}
}

func TestEPCMDriftExponent(t *testing.T) {
	p := DefaultEPCMParams()
	cell := NewEPCMCell(p, false, nil)
	cell.Age(p.DriftT0Seconds * 100)
	want := p.GOff * math.Pow(100, -p.DriftNu)
	if got := cell.Conductance(nil); math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("drifted conductance = %g, want %g", got, want)
	}
}

func TestEPCMNegativeAgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEPCMCell(DefaultEPCMParams(), true, nil).Age(-1)
}

func TestEPCMReadCurrentOhm(t *testing.T) {
	p := DefaultEPCMParams()
	cell := NewEPCMCell(p, true, nil)
	if got, want := cell.ReadCurrent(nil), p.GOn*p.ReadVoltage; got != want {
		t.Fatalf("ReadCurrent = %g, want %g", got, want)
	}
}

func TestEPCMWriteCost(t *testing.T) {
	p := DefaultEPCMParams()
	lns, epj := p.WriteCost(true)
	if lns != p.SetLatencyNs || epj != p.SetEnergyPJ {
		t.Fatal("SET cost wrong")
	}
	lns, epj = p.WriteCost(false)
	if lns != p.ResetLatencyNs || epj != p.ResetEnergyPJ {
		t.Fatal("RESET cost wrong")
	}
}

func TestTechnologyString(t *testing.T) {
	if EPCM.String() != "ePCM" || OPCM.String() != "oPCM" {
		t.Fatal("Technology strings wrong")
	}
	if Technology(99).String() == "" {
		t.Fatal("unknown technology should still print")
	}
}

func TestDefaultOPCMParamsValid(t *testing.T) {
	if err := DefaultOPCMParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOPCMValidateRejectsBadParams(t *testing.T) {
	cases := []func(*OPCMParams){
		func(p *OPCMParams) { p.THigh = 0 },
		func(p *OPCMParams) { p.THigh = 1.5 },
		func(p *OPCMParams) { p.TLow = p.THigh },
		func(p *OPCMParams) { p.TLow = -0.1 },
		func(p *OPCMParams) { p.CrossTalkDB = 3 },
		func(p *OPCMParams) { p.InputPowerMW = 0 },
		func(p *OPCMParams) { p.ShotNoiseFactor = -1 },
	}
	for i, mutate := range cases {
		p := DefaultOPCMParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

func TestOPCMNominalStates(t *testing.T) {
	p := DefaultOPCMParams()
	hi := NewOPCMCell(p, true, nil)
	lo := NewOPCMCell(p, false, nil)
	if hi.Transmittance(nil) != p.THigh || lo.Transmittance(nil) != p.TLow {
		t.Fatal("nominal transmittances wrong")
	}
}

func TestOPCMPhotocurrentScalesWithPower(t *testing.T) {
	p := DefaultOPCMParams()
	c1 := NewOPCMCell(p, true, nil)
	i1 := c1.Photocurrent(nil)
	p.InputPowerMW *= 2
	c2 := NewOPCMCell(p, true, nil)
	i2 := c2.Photocurrent(nil)
	if math.Abs(i2-2*i1) > 1e-15 {
		t.Fatalf("photocurrent not linear in power: %g vs %g", i1, i2)
	}
}

func TestOPCMTransmittanceClamped(t *testing.T) {
	// Even with huge noise the transmittance must stay in [0,1].
	p := DefaultOPCMParams()
	p.RelIntensityNoise = 2.0
	rng := rand.New(rand.NewSource(1))
	cell := NewOPCMCell(p, true, rng)
	for i := 0; i < 1000; i++ {
		tr := cell.Transmittance(rng)
		if tr < 0 || tr > 1 {
			t.Fatalf("transmittance %g outside [0,1]", tr)
		}
	}
}

func TestOPCMExtinctionRatio(t *testing.T) {
	p := DefaultOPCMParams()
	want := 10 * math.Log10(p.THigh/p.TLow)
	if got := p.ExtinctionRatioDB(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("extinction ratio = %g, want %g", got, want)
	}
	if p.ExtinctionRatioDB() < 6 {
		t.Fatal("default extinction ratio implausibly small")
	}
}

func TestOPCMCrossTalkLinear(t *testing.T) {
	p := DefaultOPCMParams()
	p.CrossTalkDB = -30
	if got := p.CrossTalkLinear(); math.Abs(got-0.001) > 1e-12 {
		t.Fatalf("crosstalk linear = %g, want 0.001", got)
	}
}

func TestSeparationSNRDecreasesWithN(t *testing.T) {
	p := DefaultOPCMParams()
	prev := math.Inf(1)
	for _, n := range []int{1, 4, 16, 64, 256} {
		snr := p.SeparationSNR(n)
		if snr >= prev {
			t.Fatalf("SNR not decreasing at n=%d: %g >= %g", n, snr, prev)
		}
		prev = snr
	}
	if p.SeparationSNR(0) != math.Inf(1) {
		t.Fatal("SNR of empty accumulation should be infinite")
	}
}

// Property: programming variability preserves state ordering — any SET
// cell population sample must not fall below any RESET sample for the
// default (binary-robust) parameters at modest sigma.
func TestOPCMBinarySeparationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := DefaultOPCMParams()
		hi := NewOPCMCell(p, true, rng).Transmittance(rng)
		lo := NewOPCMCell(p, false, rng).Transmittance(rng)
		return hi > lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
