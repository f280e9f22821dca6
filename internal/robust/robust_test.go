package robust

import (
	"reflect"
	"testing"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/dataset"
	"einsteinbarrier/internal/device"
)

// trainedModel returns a small trained digit MLP plus held-out samples.
func trainedModel(t *testing.T) (*bnn.Model, []dataset.Sample) {
	t.Helper()
	samples := dataset.Digits(500, 11)
	train, test, err := dataset.Split(samples, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := dataset.Flatten(train)
	tr, err := bnn.NewTrainer(bnn.TrainerConfig{Sizes: []int{784, 48, 48, 10}, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 8; epoch++ {
		if _, err := tr.TrainEpoch(xs, ys); err != nil {
			t.Fatal(err)
		}
	}
	return tr.Export("digit-mlp"), test
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(device.EPCM).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(device.EPCM)
	bad.WDM = 4 // WDM on electronic arrays
	if err := bad.Validate(); err == nil {
		t.Fatal("expected WDM/ePCM error")
	}
	bad = DefaultConfig(device.OPCM)
	bad.WDM = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected WDM<1 error")
	}
	bad = DefaultConfig(device.EPCM)
	bad.Faults.StuckOnRate = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("expected fault-model error")
	}
}

// TestHardwareAgreesAtDefaultCorner is the §V-C reproduction: at the
// default device corner the hardware-executed model must predict
// identically to software.
func TestHardwareAgreesAtDefaultCorner(t *testing.T) {
	model, test := trainedModel(t)
	for _, tech := range []device.Technology{device.EPCM, device.OPCM} {
		hw, err := Map(model, DefaultConfig(tech))
		if err != nil {
			t.Fatal(err)
		}
		a, err := compare(model, hw, test)
		if err != nil {
			t.Fatal(err)
		}
		if a.MatchRate() < 1.0 {
			t.Fatalf("%v: hardware/software agreement %.3f < 1.0 at default corner", tech, a.MatchRate())
		}
		if a.HardwareAccuracy != a.SoftwareAccuracy {
			t.Fatalf("%v: accuracies diverge: hw %.3f sw %.3f", tech, a.HardwareAccuracy, a.SoftwareAccuracy)
		}
	}
}

// TestNoiseSweepDegradesMonotonically: agreement must be ~1 at the
// robust corner and visibly degraded at an absurd spread.
func TestNoiseSweepDegrades(t *testing.T) {
	model, test := trainedModel(t)
	points, err := NoiseSweep(model, test[:30], DefaultConfig(device.EPCM),
		[]float64{0.01, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Agreement.MatchRate(); got < 0.97 {
		t.Fatalf("robust corner agreement %.3f too low", got)
	}
	if got := points[1].Agreement.MatchRate(); got > 0.95 {
		t.Fatalf("sigma=0.5 agreement %.3f implausibly high — noise not biting", got)
	}
}

// TestFaultToleranceCurve: a BNN shrugs off sparse defects and dies at
// dense ones.
func TestFaultToleranceCurve(t *testing.T) {
	model, test := trainedModel(t)
	points, err := FaultSweep(model, test[:30], DefaultConfig(device.EPCM),
		[]float64{0.001, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	sparse, dense := points[0].Agreement, points[1].Agreement
	if sparse.MatchRate() < 0.9 {
		t.Fatalf("0.1%% defects dropped agreement to %.3f", sparse.MatchRate())
	}
	if dense.MatchRate() >= sparse.MatchRate() {
		t.Fatalf("40%% defects should hurt: sparse %.3f dense %.3f",
			sparse.MatchRate(), dense.MatchRate())
	}
}

func TestFaultsCountedAtMapTime(t *testing.T) {
	model, _ := trainedModel(t)
	cfg := DefaultConfig(device.EPCM)
	cfg.Faults = crossbar.FaultModel{StuckOnRate: 0.05, StuckOffRate: 0.05, Seed: 1}
	hw, err := Map(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hw.FlippedCells == 0 {
		t.Fatal("10% defects must flip some cells")
	}
}

func TestWDMPathMatchesSerialPath(t *testing.T) {
	// oPCM with WDM batching must agree with the same arrays driven
	// serially (per-position VMM).
	model, test := trainedModel(t)
	cfgW := DefaultConfig(device.OPCM)
	cfgS := cfgW
	cfgS.WDM = 1
	hwW, err := Map(model, cfgW)
	if err != nil {
		t.Fatal(err)
	}
	hwS, err := Map(model, cfgS)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range test[:20] {
		x := s.X.Reshape(784)
		a, err := hwW.Predict(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		b, err := hwS.Predict(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatal("WDM and serial hardware paths disagree")
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	model, test := trainedModel(t)
	hw, err := Map(model, DefaultConfig(device.EPCM))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Predict(test[0].X.Reshape(784)); err != nil {
		t.Fatal(err)
	}
	var vmms int64
	for _, tm := range hw.mapped {
		vmms += tm.Stats().VMMOps
	}
	if vmms == 0 {
		t.Fatal("hardware inference must perform crossbar activations")
	}
}

func TestMapRejectsInvalid(t *testing.T) {
	model, _ := trainedModel(t)
	cfg := DefaultConfig(device.EPCM)
	cfg.Array.Rows = 0
	if _, err := Map(model, cfg); err == nil {
		t.Fatal("invalid array config should fail")
	}
	bad := &bnn.Model{ModelName: "x", InputShape: []int{1}, Classes: 1}
	if _, err := Map(bad, DefaultConfig(device.EPCM)); err == nil {
		t.Fatal("invalid model should fail")
	}
}

// TestDriftDoesNotBreakBinary: §II-C — amorphous drift only widens the
// binary read window, so even a week of drift must leave hardware
// predictions identical to software on ePCM arrays.
func TestDriftDoesNotBreakBinary(t *testing.T) {
	model, test := trainedModel(t)
	points, err := DriftSweep(model, test[:25], DefaultConfig(device.EPCM),
		[]float64{0, 3600, 604800})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Agreement.MatchRate() < 1.0 {
			t.Fatalf("%s: drift broke agreement (%.3f)", p.Label, p.Agreement.MatchRate())
		}
	}
}

// TestSweepsParallelBitIdenticalToSerial: every sweep fans corners out
// over the Config.Workers pool; the parallel results must match the
// serial (Workers = 1) path exactly — corners are independently seeded
// and each worker compares against its own model clone.
func TestSweepsParallelBitIdenticalToSerial(t *testing.T) {
	model, test := trainedModel(t)
	if len(test) > 24 {
		test = test[:24]
	}
	run := func(workers int) [][]SweepPoint {
		serial := DefaultConfig(device.EPCM)
		serial.Workers = workers
		noise, err := NoiseSweep(model, test, serial, []float64{0.01, 0.1, 0.4})
		if err != nil {
			t.Fatal(err)
		}
		faults, err := FaultSweep(model, test, serial, []float64{0.01, 0.1})
		if err != nil {
			t.Fatal(err)
		}
		drift, err := DriftSweep(model, test, serial, []float64{0, 86400})
		if err != nil {
			t.Fatal(err)
		}
		return [][]SweepPoint{noise, faults, drift}
	}
	want := run(1)
	got := run(4)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel sweeps differ from serial:\nserial: %+v\nparallel: %+v", want, got)
	}
}
