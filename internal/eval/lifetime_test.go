package eval

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/trace"
)

// lifetimeScenario is the pinned MLP-S × EinsteinBarrier run: read
// noise off so the trace is an exact function of the seeds, default
// programming spread on so drift visibly degrades the canary (see the
// serve package's lifetime corner for why).
func lifetimeScenario() LifetimeScenario {
	hw := robust.DefaultConfig(device.EPCM)
	hw.Array.EPCM.ReadNoiseSigma = 0
	hw.Array.Seed = 7
	return LifetimeScenario{
		Model:    "MLP-S",
		Design:   arch.EinsteinBarrier,
		Eval:     DefaultConfig(),
		Hardware: hw,
		Workers:  1,
		MaxBatch: 4,
		Requests: 18,
		Seed:     1,
		Lifetime: serve.LifetimeConfig{
			CanaryEvery: 3,
			Floor:       0.99,
			FlagAfter:   2,
		},
		SecondsPerSample: 20,
	}
}

func TestRunLifetimeClosedLoop(t *testing.T) {
	rep, err := RunLifetime(lifetimeScenario())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 18 || rep.Failed != 0 || rep.Shed != 0 {
		t.Fatalf("completed/failed/shed = %d/%d/%d", rep.Completed, rep.Failed, rep.Shed)
	}
	if rep.AvailabilityPct != 100 {
		t.Fatalf("availability %g, want 100", rep.AvailabilityPct)
	}
	if rep.Recalibrations == 0 {
		t.Fatalf("drift never triggered a recalibration: %+v", rep.Lifetime)
	}
	if rep.Retired != 0 {
		t.Fatalf("unexpected retirement: %+v", rep.Lifetime)
	}
	if rep.RecalEnergyJ <= 0 || rep.RecalLatencyMs <= 0 {
		t.Fatalf("recalibration not priced: %g J, %g ms", rep.RecalEnergyJ, rep.RecalLatencyMs)
	}
	if rep.HorizonSeconds != 18*20 {
		t.Fatalf("horizon %g, want %g", rep.HorizonSeconds, 18.0*20)
	}
	if len(rep.Trace) == 0 || rep.MinCanary >= 1 || rep.MeanCanary <= rep.MinCanary {
		t.Fatalf("degradation not visible in trace: mean %g min %g (%d probes)",
			rep.MeanCanary, rep.MinCanary, len(rep.Trace))
	}
	recovered := false
	for _, p := range rep.Trace {
		if p.PostRecal && p.Accuracy == 1 && p.AgeSeconds == 0 {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("no post-recal probe restored fresh accuracy: %+v", rep.Trace)
	}
	if rep.Stats.Sim == nil || rep.Stats.Sim.Samples != 18 {
		t.Fatalf("EinsteinBarrier pricer did not price the stream: %+v", rep.Stats.Sim)
	}
	if rep.Design != "EinsteinBarrier" {
		t.Fatalf("design name %q", rep.Design)
	}
}

func TestRunLifetimeDeterministic(t *testing.T) {
	a, err := RunLifetime(lifetimeScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLifetime(lifetimeScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trace, b.Trace) {
		t.Fatalf("trace not reproducible:\n%+v\nvs\n%+v", a.Trace, b.Trace)
	}
	if a.Recalibrations != b.Recalibrations || a.RecalEnergyJ != b.RecalEnergyJ {
		t.Fatalf("recal accounting not reproducible: %d/%g vs %d/%g",
			a.Recalibrations, a.RecalEnergyJ, b.Recalibrations, b.RecalEnergyJ)
	}
}

func TestRunLifetimeDiurnal(t *testing.T) {
	sc := lifetimeScenario()
	// Fast wall-clock day/night cycles; the simulated device clock is
	// unaffected (it ticks per served sample). Bursty arrivals form
	// larger batches, so probe every batch to keep the canary cadence.
	sc.Diurnal = &DiurnalLoad{BaseRate: 200, PeakRate: 2000, Period: 100 * time.Millisecond}
	sc.Lifetime.CanaryEvery = 1
	rep, err := RunLifetime(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Shed+rep.Failed != 18 {
		t.Fatalf("requests not accounted for: %+v", rep)
	}
	if rep.Completed == 0 {
		t.Fatalf("diurnal run completed nothing: %+v", rep)
	}
	if rep.Recalibrations == 0 {
		t.Fatalf("diurnal run never recalibrated: %+v", rep.Lifetime)
	}
}

func TestRunLifetimeValidation(t *testing.T) {
	if _, err := RunLifetime(LifetimeScenario{Model: "MLP-S", Design: -1}); err == nil {
		t.Fatal("want error for Requests == 0")
	}
	for _, sps := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		sc := lifetimeScenario()
		sc.SecondsPerSample = sps
		if _, err := RunLifetime(sc); err == nil {
			t.Fatalf("SecondsPerSample %g: want error for missing clock", sps)
		}
	}
	sc := lifetimeScenario()
	sc.Model = "no-such-model"
	if _, err := RunLifetime(sc); err == nil {
		t.Fatal("want error for unknown model")
	}
	// A bad policy is reported before any set-up: with an unknown model
	// and a NaN floor, the floor error comes first.
	sc.Model = "nope"
	sc.Lifetime.Floor = math.NaN()
	if _, err := RunLifetime(sc); err == nil || !strings.Contains(err.Error(), "floor") {
		t.Fatalf("NaN floor with an unknown model: want the floor error, got %v", err)
	}
	sc.Lifetime.Floor = 0.99
	sc.Lifetime.FaultRatePerSecond = math.NaN()
	if _, err := RunLifetime(sc); err == nil || !strings.Contains(err.Error(), "fault") {
		t.Fatalf("NaN fault rate with an unknown model: want the fault-rate error, got %v", err)
	}
}

func TestLifetimeWriters(t *testing.T) {
	rep := LifetimeReport{
		Model: "MLP-S", Design: "EinsteinBarrier", HorizonSeconds: 360,
		Requests: 18, Completed: 18, AvailabilityPct: 100,
		Recalibrations: 2, RecalEnergyJ: 4.2e-5, RecalLatencyMs: 0.01,
		DrainServed: 3, DrainP99Ms: 1.5,
		MeanCanary: 0.9, MinCanary: 0.625,
		Trace: []serve.CanaryPoint{
			{Replica: 0, ServedSamples: 6, AgeSeconds: 120, Accuracy: 0.75, Flagged: true},
			{Replica: 0, ServedSamples: 6, AgeSeconds: 0, Accuracy: 1, PostRecal: true},
		},
	}

	var jsonBuf bytes.Buffer
	if err := report.JSON(&jsonBuf, rep); err != nil {
		t.Fatal(err)
	}
	var back LifetimeReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("JSON round trip:\n%+v\nvs\n%+v", back, rep)
	}

	var csvBuf bytes.Buffer
	if err := trace.WriteCSV(&csvBuf, LifetimeTraceRecorder(rep)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(rep.Trace) {
		t.Fatalf("CSV rows %d, want %d:\n%s", len(lines), 1+len(rep.Trace), csvBuf.String())
	}
	if lines[0] != trace.CSVHeader {
		t.Fatalf("CSV header %q, want shared trace schema %q", lines[0], trace.CSVHeader)
	}
	if !strings.Contains(lines[1], "flagged") || !strings.Contains(lines[1], "replica 0") {
		t.Fatalf("flagged row not marked: %q", lines[1])
	}
	if !strings.Contains(lines[2], "post-recal") {
		t.Fatalf("post-recal row not marked: %q", lines[2])
	}

	table := textOf(t, rep.Table())
	for _, want := range []string{"MLP-S", "EinsteinBarrier", "availability", "post-recal", "flagged", "drain p99"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
