package crossbar

import (
	"math/rand"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/device"
)

func TestIRDropValidate(t *testing.T) {
	if err := (IRDropModel{SegmentOhm: -1}).Validate(); err == nil {
		t.Fatal("expected error")
	}
	if err := (IRDropModel{SegmentOhm: 2}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIRDropZeroMatchesVMM(t *testing.T) {
	cfg := smallConfig(device.EPCM, true, 0)
	arr, _ := NewArray(cfg)
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, cfg.Rows, cfg.Cols)
	_ = arr.Program(m)
	x := randomVector(rng, cfg.Rows)
	want, err := arr.VMMInto(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := arr.VMMWithIRDrop(x, IRDropModel{SegmentOhm: 0})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if got[c] != want[c] {
			t.Fatalf("col %d: %d != %d with zero wire resistance", c, got[c], want[c])
		}
	}
}

func TestIRDropRequiresEPCM(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.OPCM, true, 0))
	if _, err := arr.VMMWithIRDrop(bitops.NewVector(arr.cfg.Rows), IRDropModel{SegmentOhm: 1}); err == nil {
		t.Fatal("expected ePCM-only error")
	}
}

func TestIRDropDegradesLargeArrays(t *testing.T) {
	// A small array survives realistic wire resistance; the far corner
	// of a large one under-counts.
	mdl := IRDropModel{SegmentOhm: 2}
	small, _ := NewArray(smallConfig(device.EPCM, true, 0)) // 64×32
	large := smallConfig(device.EPCM, true, 0)
	large.Rows, large.Cols = 512, 512
	large.ADCBits = 10
	big, err := NewArray(large)
	if err != nil {
		t.Fatal(err)
	}
	if small.WorstCaseAttenuation(mdl) <= big.WorstCaseAttenuation(mdl) {
		t.Fatal("attenuation must worsen with array size")
	}

	// Functional check on the big array: all-ones program, all-rows
	// drive → ideal popcount = rows everywhere; IR drop must lose counts
	// in far columns.
	ones := bitops.NewMatrix(large.Rows, large.Cols)
	for r := 0; r < large.Rows; r++ {
		for c := 0; c < large.Cols; c++ {
			ones.Set(r, c, true)
		}
	}
	_ = big.Program(ones)
	x := bitops.NewVector(large.Rows)
	for i := 0; i < large.Rows; i++ {
		x.Set(i)
	}
	got, err := big.VMMWithIRDrop(x, mdl)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] <= got[large.Cols-1] {
		t.Fatalf("near column %d should out-count far column %d", got[0], got[large.Cols-1])
	}
	if got[large.Cols-1] >= large.Rows {
		t.Fatal("far column must visibly under-count under IR drop")
	}
}

func TestAttenuationMonotone(t *testing.T) {
	m := IRDropModel{SegmentOhm: 1}
	p := device.DefaultEPCMParams()
	prev := 2.0
	for _, d := range []int{0, 10, 100, 500} {
		att := m.attenuation(d, d, 256, p.GOn)
		if att >= prev || att <= 0 || att > 1 {
			t.Fatalf("attenuation %g at distance %d not in (0, prev)", att, d)
		}
		prev = att
	}
}

func TestMaxCleanArraySize(t *testing.T) {
	p := device.DefaultEPCMParams()
	loose := IRDropModel{SegmentOhm: 0.5}
	tight := IRDropModel{SegmentOhm: 8}
	nl := loose.MaxCleanArraySize(p, 0.9)
	nt := tight.MaxCleanArraySize(p, 0.9)
	if nl <= nt {
		t.Fatalf("lower wire resistance must allow bigger arrays: %d vs %d", nl, nt)
	}
	if z := (IRDropModel{}).MaxCleanArraySize(p, 0.9); z < 4096 {
		t.Fatalf("zero resistance should be unbounded, got %d", z)
	}
}

func TestIRDropInputMismatch(t *testing.T) {
	arr, _ := NewArray(smallConfig(device.EPCM, true, 0))
	if _, err := arr.VMMWithIRDrop(bitops.NewVector(1), IRDropModel{}); err == nil {
		t.Fatal("expected length error")
	}
}
