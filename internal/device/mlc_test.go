package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMLCParamsValidate(t *testing.T) {
	if err := DefaultMLCParams(4).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MLCParams{
		{Levels: 1, Low: 0, High: 1},
		{Levels: 4, Low: -1, High: 1},
		{Levels: 4, Low: 0.5, High: 0.5},
		{Levels: 4, Low: 0, High: 1, ProgramSigma: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestLevelValuesUniform(t *testing.T) {
	p := DefaultMLCParams(4)
	if p.levelValue(0) != p.Low || p.levelValue(3) != p.High {
		t.Fatal("endpoints wrong")
	}
	gap := p.levelGap()
	for l := 1; l < 4; l++ {
		if math.Abs(p.levelValue(l)-p.levelValue(l-1)-gap) > 1e-12 {
			t.Fatal("levels not uniform")
		}
	}
}

func TestLevelValuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultMLCParams(4).levelValue(4)
}

func TestDecodeNominalExact(t *testing.T) {
	for _, levels := range []int{2, 4, 8, 16} {
		p := DefaultMLCParams(levels)
		for l := 0; l < levels; l++ {
			cell := newMLCCell(p, l, nil)
			if got := p.decode(cell.read(nil)); got != l {
				t.Fatalf("L=%d level %d decoded as %d", levels, l, got)
			}
		}
	}
}

func TestDecodeClamps(t *testing.T) {
	p := DefaultMLCParams(4)
	if p.decode(-10) != 0 || p.decode(10) != 3 {
		t.Fatal("decode must clamp to valid levels")
	}
}

// TestBinaryRobustMultiLevelFragile is the §II-C/Cardoso argument:
// at the same realistic noise, binary cells decode essentially without
// error while 16-level cells fail frequently.
func TestBinaryRobustMultiLevelFragile(t *testing.T) {
	noise := 0.04 // pessimistic combined spread
	binary := MLCParams{Levels: 2, Low: 0.10, High: 0.85, ProgramSigma: noise, ReadNoiseSigma: noise / 4}
	mlc16 := binary
	mlc16.Levels = 16
	be := binary.MonteCarloErrorRate(20000, 1)
	me := mlc16.MonteCarloErrorRate(20000, 1)
	if be > 1e-3 {
		t.Fatalf("binary error rate %g too high at realistic noise", be)
	}
	if me < 0.05 {
		t.Fatalf("16-level error rate %g implausibly low — the binary argument would vanish", me)
	}
}

func TestAnalyticTracksMonteCarlo(t *testing.T) {
	p := MLCParams{Levels: 8, Low: 0.10, High: 0.85, ProgramSigma: 0.02, ReadNoiseSigma: 0.005}
	analytic := p.AnalyticErrorRate()
	mc := p.MonteCarloErrorRate(200000, 7)
	// The analytic bound treats all levels as interior (two-sided), so
	// it should be within ~2× of Monte-Carlo.
	if mc == 0 || analytic == 0 {
		t.Fatalf("degenerate rates: analytic %g mc %g", analytic, mc)
	}
	ratio := analytic / mc
	if ratio < 0.4 || ratio > 2.5 {
		t.Fatalf("analytic %g vs MC %g: ratio %g outside [0.4, 2.5]", analytic, mc, ratio)
	}
}

func TestErrorRateGrowsWithLevels(t *testing.T) {
	prev := -1.0
	for _, l := range []int{2, 4, 8, 16, 32} {
		p := DefaultMLCParams(l)
		e := p.AnalyticErrorRate()
		if e < prev {
			t.Fatalf("error rate not monotone at L=%d", l)
		}
		prev = e
	}
}

func TestRobustLevelLimit(t *testing.T) {
	// Tight devices allow more levels; sloppy devices force binary.
	tight := MLCParams{Levels: 2, Low: 0.10, High: 0.85, ProgramSigma: 0.002, ReadNoiseSigma: 0.001}
	sloppy := MLCParams{Levels: 2, Low: 0.10, High: 0.85, ProgramSigma: 0.08, ReadNoiseSigma: 0.02}
	lt := tight.RobustLevelLimit(1e-4)
	ls := sloppy.RobustLevelLimit(1e-4)
	if lt <= ls {
		t.Fatalf("tight devices (%d levels) must beat sloppy (%d)", lt, ls)
	}
	if ls > 2 {
		t.Fatalf("sloppy devices should be limited to ~binary, got %d levels", ls)
	}
}

// Property: decoding a noiselessly-read programmed cell is always exact
// for any level count in [2, 32].
func TestNoiselessDecodeProperty(t *testing.T) {
	f := func(rawLevels, rawL uint8) bool {
		levels := 2 + int(rawLevels)%31
		l := int(rawL) % levels
		p := DefaultMLCParams(levels)
		cell := newMLCCell(p, l, nil)
		return p.decode(cell.read(nil)) == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
