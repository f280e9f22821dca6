package serve

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/robust"
)

// lifetimeCorner is the deterministic device corner for the closed-loop
// pins: read noise off, so every prediction is an exact function of the
// seeded conductance planes and the device age. The default programming
// spread stays on — it is what puts popcount sums near their decision
// boundaries so that drift visibly degrades the synthetic zoo models
// (at zero spread the nominal margins absorb any realistic drift).
func lifetimeCorner() robust.Config {
	cfg := robust.DefaultConfig(device.EPCM)
	cfg.Array.EPCM.ReadNoiseSigma = 0
	cfg.Array.Seed = 7
	return cfg
}

type lifetimeOutcome struct {
	classes []int
	trace   []CanaryPoint
	snap    Snapshot
}

// runLifetimeScenario drives a serial seeded request stream through a
// lifetime-mode server and returns everything observable.
func runLifetimeScenario(t *testing.T, workers int, life *LifetimeConfig, requests int) lifetimeOutcome {
	t.Helper()
	model := zooModel(t, "MLP-S")
	hw, err := NewHardwareBackend(model, lifetimeCorner())
	if err != nil {
		t.Fatal(err)
	}
	if life.Canary == nil {
		canary, err := NewCanarySet(model, testInputs(t, model, 16, 33))
		if err != nil {
			t.Fatal(err)
		}
		life.Canary = canary
	}
	s, err := New(Config{Backend: hw, Workers: workers, MaxBatch: 4, Lifetime: life})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	out := lifetimeOutcome{classes: make([]int, 0, requests)}
	xs := testInputs(t, model, requests, 99)
	for i, x := range xs {
		res, err := s.submit(x)
		if err != nil {
			t.Fatalf("request %d dropped/errored during lifetime scenario: %v", i, err)
		}
		out.classes = append(out.classes, res.Class)
	}
	s.Stop()
	out.trace = s.Trace()
	out.snap = s.Stats()
	return out
}

// TestClosedLoopRecalibration is the pinned closed-loop test: under a
// seeded serial load with an aggressive drift clock, the replica is
// flagged by the canary, drained with zero dropped requests,
// recalibrated, and returns with canary accuracy restored to the
// fresh-replica level — and the whole trajectory is deterministic
// across runs.
func TestClosedLoopRecalibration(t *testing.T) {
	mk := func() *LifetimeConfig {
		return &LifetimeConfig{
			// ~10 simulated seconds of drift per served sample: synthetic
			// zoo margins collapse within a few batches.
			Clock:       BatchClock{SecondsPerSample: 10},
			CanaryEvery: 2,
			Floor:       0.99,
			FlagAfter:   2,
		}
	}
	model := zooModel(t, "MLP-S")
	hwb, err := NewHardwareBackend(model, lifetimeCorner())
	if err != nil {
		t.Fatal(err)
	}
	freshRep, err := hwb.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	canary, err := NewCanarySet(model, testInputs(t, model, 16, 33))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := canary.Evaluate(freshRep)
	if err != nil {
		t.Fatal(err)
	}
	if fresh != 1.0 {
		t.Fatalf("fresh replica canary accuracy %.3f, want 1.0 at the noise-free corner", fresh)
	}

	a := runLifetimeScenario(t, 1, mk(), 40)
	b := runLifetimeScenario(t, 1, mk(), 40)

	// Determinism across runs: identical predictions and identical
	// canary trajectories.
	if !reflect.DeepEqual(a.classes, b.classes) {
		t.Fatal("served classes differ between two identical runs")
	}
	if !reflect.DeepEqual(a.trace, b.trace) {
		t.Fatalf("canary traces differ between two identical runs:\n%v\n%v", a.trace, b.trace)
	}

	lt := a.snap.Lifetime
	if lt == nil {
		t.Fatal("no lifetime block in snapshot")
	}
	if lt.Recalibrations == 0 {
		t.Fatalf("drift never triggered a recalibration: %+v\ntrace: %v", lt, a.trace)
	}
	if lt.RecalEnergyPJ <= 0 || lt.RecalLatencyNs <= 0 {
		t.Fatalf("recalibration not priced: %+v", lt)
	}
	if lt.Retired != 0 {
		t.Fatalf("drift-only degradation must be fully repairable, got %d retired", lt.Retired)
	}
	// The loop closed: a flagged probe is followed by a post-recal probe
	// restored to the fresh-replica level.
	sawFlag, sawRestore := false, false
	for _, p := range a.trace {
		if p.Flagged {
			sawFlag = true
		}
		if p.PostRecal {
			sawRestore = true
			if p.Accuracy != fresh {
				t.Fatalf("post-recal canary %.3f != fresh level %.3f", p.Accuracy, fresh)
			}
			if p.AgeSeconds != 0 {
				t.Fatalf("post-recal age %.1f, want 0", p.AgeSeconds)
			}
		}
	}
	if !sawFlag || !sawRestore {
		t.Fatalf("trace missing flag (%v) or restore (%v): %v", sawFlag, sawRestore, a.trace)
	}
	// Degradation was real: some pre-recal probe fell below the floor.
	degraded := false
	for _, p := range a.trace {
		if !p.PostRecal && p.Accuracy < 0.99 {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("no canary probe ever saw degradation")
	}
	// Zero drops, every request answered.
	if a.snap.Completed != 40 || a.snap.Failed != 0 || a.snap.Shed != 0 {
		t.Fatalf("accounting: %+v", a.snap)
	}
	// Requests served during the drain window were tracked for the SLO
	// view (the queued-behind-drain batches).
	if a.snap.DrainServed == 0 || a.snap.DrainLatency == nil {
		t.Fatalf("no drain-window latency accounting: %+v", a.snap)
	}
}

// TestClosedLoopAcrossWorkerCounts: the outcome-level invariants hold
// at any worker count — zero dropped requests, every flagged replica
// recalibrated and restored above the floor, nothing retired.
func TestClosedLoopAcrossWorkerCounts(t *testing.T) {
	for _, workers := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			life := &LifetimeConfig{
				Clock:       BatchClock{SecondsPerSample: 40},
				CanaryEvery: 2,
				Floor:       0.99,
				FlagAfter:   2,
			}
			out := runLifetimeScenario(t, workers, life, 48)
			if out.snap.Completed != 48 || out.snap.Failed != 0 {
				t.Fatalf("dropped work: %+v", out.snap)
			}
			lt := out.snap.Lifetime
			if lt.Recalibrations == 0 {
				t.Fatalf("no recalibration at workers=%d: trace %v", workers, out.trace)
			}
			if lt.Retired != 0 {
				t.Fatalf("unexpected retirement: %+v", lt)
			}
			for _, r := range lt.Replicas {
				if r.State != repActive {
					t.Fatalf("replica %d finished in state %q", r.ID, r.State)
				}
				if r.Recals > 0 && r.WindowAccuracy < life.Floor {
					t.Fatalf("replica %d recalibrated but window %.3f below floor", r.ID, r.WindowAccuracy)
				}
			}
		})
	}
}

// TestFallbackFailOpen: wear-driven stuck-at faults make recalibration
// insufficient, the replica retires, and the software fallback serves
// the remainder of the stream — zero client-visible errors, flagged in
// the stats block.
func TestFallbackFailOpen(t *testing.T) {
	model := zooModel(t, "MLP-S")
	life := &LifetimeConfig{
		Clock:       BatchClock{SecondsPerSample: 10},
		CanaryEvery: 2,
		Floor:       0.99,
		FlagAfter:   2,
		// Wear 0.004/s: by the first flag (age ~100 s) the stuck-off
		// population is large enough that recalibration cannot restore
		// the floor — permanent damage, retirement.
		FaultRatePerSecond: 0.004,
		FaultSeed:          5,
		Fallback:           model,
	}
	out := runLifetimeScenario(t, 1, life, 48)
	lt := out.snap.Lifetime
	if lt.Retired != 1 {
		t.Fatalf("replica not retired: %+v\ntrace: %v", lt, out.trace)
	}
	if lt.FallbackServed == 0 {
		t.Fatalf("fallback never served: %+v", lt)
	}
	if out.snap.Completed != 48 || out.snap.Failed != 0 {
		t.Fatalf("fail-open dropped work: %+v", out.snap)
	}
	// Fallback output is the exact software path.
	serial := model.CloneShared()
	xs := testInputs(t, model, 48, 99)
	last := xs[len(xs)-1]
	if want := serial.Predict(last.Clone()); out.classes[len(out.classes)-1] != want {
		t.Fatalf("fallback-served class %d != software %d", out.classes[len(out.classes)-1], want)
	}
}

// TestAllRetiredNoFallbackFailsLoudly: with fallback disabled, a fully
// retired fleet fails requests with ErrNoHealthyReplica instead of
// queueing them forever.
func TestAllRetiredNoFallbackFailsLoudly(t *testing.T) {
	model := zooModel(t, "MLP-S")
	hw, err := NewHardwareBackend(model, lifetimeCorner())
	if err != nil {
		t.Fatal(err)
	}
	canary, err := NewCanarySet(model, testInputs(t, model, 16, 33))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: hw, Workers: 1, MaxBatch: 4, Lifetime: &LifetimeConfig{
		Clock:              BatchClock{SecondsPerSample: 10},
		CanaryEvery:        2,
		Floor:              0.99,
		FlagAfter:          2,
		Canary:             canary,
		FaultRatePerSecond: 0.004,
		FaultSeed:          5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	xs := testInputs(t, model, 64, 99)
	var failed error
	for _, x := range xs {
		if _, err := s.submit(x); err != nil {
			failed = err
			break
		}
	}
	if !errors.Is(failed, ErrNoHealthyReplica) {
		t.Fatalf("want ErrNoHealthyReplica after full retirement, got %v (lifetime %+v)",
			failed, s.Stats().Lifetime)
	}
	if s.Stats().Lifetime.Retired != 1 {
		t.Fatalf("replica not retired: %+v", s.Stats().Lifetime)
	}
}

// TestHealthWindowHysteresis pins the no-flap contract: isolated dips
// below the floor never flag, FlagAfter consecutive dips do, and the
// flag only clears via reset (post-recalibration).
func TestHealthWindowHysteresis(t *testing.T) {
	h := newHealthWindow(0.95, 4, 2)
	for i := 0; i < 10; i++ { // alternating dip/recover: never flags
		if h.observe(0.5) {
			t.Fatalf("flagged on isolated dip %d", i)
		}
		if h.observe(1.0) {
			t.Fatal("flagged on a healthy pass")
		}
	}
	h.observe(0.5)
	if !h.observe(0.5) { // second consecutive dip crosses FlagAfter
		t.Fatal("two consecutive dips did not flag")
	}
	if !h.observe(1.0) {
		t.Fatal("flag cleared by a single recovery — flapping")
	}
	h.reset()
	if h.flagged || h.below != 0 || len(h.recent) != 0 {
		t.Fatalf("reset left state behind: %+v", h)
	}
	if h.mean() != 1 {
		t.Fatalf("fresh window mean %v, want presumed-healthy 1", h.mean())
	}
}

// TestLifetimeRequiresAgingReplicas: lifetime mode on a software
// backend must fail fast at construction.
func TestLifetimeRequiresAgingReplicas(t *testing.T) {
	model := zooModel(t, "MLP-S")
	sw, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	canary, err := NewCanarySet(model, testInputs(t, model, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{Backend: sw, Lifetime: &LifetimeConfig{
		Clock: BatchClock{SecondsPerSample: 1}, Canary: canary}})
	if err == nil {
		t.Fatal("software backend accepted in lifetime mode")
	}
}
