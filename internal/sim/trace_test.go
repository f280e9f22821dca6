package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// traceRecorder builds a recorder sized so a b-sample run drops nothing.
func traceRecorder(e *Engine, b int) *trace.Recorder {
	return trace.New(b*e.TraceEventsPerSample() + 16)
}

// TestTracedRunBitIdentical pins the observer-effect contract: enabling
// the recorder must not change a single bit of the BatchResult.
func TestTracedRunBitIdentical(t *testing.T) {
	s := newSim(t)
	for _, name := range []string{"MLP-S", "CNN-L"} {
		for _, d := range allDesigns {
			c := compiled(t, name, d)
			plain, err := s.NewEngine(c)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			traced, err := s.NewEngine(c)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, d, err)
			}
			traced.EnableTrace(traceRecorder(traced, 64))
			for _, b := range []int{1, 7, 64} {
				want, err := plain.RunBatch(b)
				if err != nil {
					t.Fatalf("%s/%v B=%d: %v", name, d, b, err)
				}
				got, err := traced.RunBatch(b)
				if err != nil {
					t.Fatalf("%s/%v B=%d: %v", name, d, b, err)
				}
				if got.MakespanNs != want.MakespanNs || got.LinkWaitNs != want.LinkWaitNs ||
					got.ThroughputPerSec != want.ThroughputPerSec {
					t.Fatalf("%s/%v B=%d: traced run diverged: %+v vs %+v", name, d, b, got, want)
				}
				for i := range want.Stages {
					if got.Stages[i].Busy != want.Stages[i].Busy {
						t.Fatalf("%s/%v B=%d stage %d: busy %v != %v", name, d, b,
							i, got.Stages[i].Busy, want.Stages[i].Busy)
					}
				}
			}
		}
	}
}

// TestTraceSumsMatchAggregates is the acceptance cross-check on the
// issue's named configuration (CNN-L/EinsteinBarrier, B=256): per-stage
// occupancy slices sum to each stage's busy fraction and the flow
// (wait) events sum to LinkWaitNs — both bit-exactly, because the
// trace emits the very terms the aggregates accumulate, in the same
// order.
func TestTraceSumsMatchAggregates(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "CNN-L", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	const b = 256
	r := traceRecorder(eng, b)
	eng.EnableTrace(r)
	br, err := eng.RunBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped() != 0 {
		t.Fatalf("sized ring dropped %d events", r.Dropped())
	}

	// Track id → stage index, via the registration order ("samples"
	// first, then one track per stage).
	tracks := r.Tracks()
	stageOf := map[int32]int{}
	for i := range eng.stages {
		stageOf[tracks[1+i].ID] = i
	}
	busy := make([]float64, len(eng.stages))
	wait := 0.0
	samples := map[int64]bool{}
	for _, ev := range r.Events() {
		switch ev.Kind {
		case trace.KindSlice:
			if si, ok := stageOf[ev.Track]; ok {
				busy[si] += ev.Dur
			}
		case trace.KindFlow:
			wait += ev.Dur
		case trace.KindInstant:
			samples[ev.Seq] = true
		}
	}
	if len(samples) != b {
		t.Fatalf("trace shows %d completed samples, want %d", len(samples), b)
	}
	if wait != br.LinkWaitNs {
		t.Fatalf("flow durations sum to %v, BatchResult.LinkWaitNs = %v", wait, br.LinkWaitNs)
	}
	for si, st := range br.Stages {
		if got := busy[si] / br.MakespanNs; got != st.Busy {
			t.Fatalf("stage %d (%s): trace busy %v != reported %v", si, st.Name, got, st.Busy)
		}
	}

	// The export must be loadable trace-event JSON.
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]string
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export not JSON: %v", err)
	}
	if len(parsed.TraceEvents) == 0 || parsed.OtherData["batch"] != "256" {
		t.Fatalf("export shape wrong: %d events, otherData %v", len(parsed.TraceEvents), parsed.OtherData)
	}
}

// TestTraceReRunDeterministic: two traced runs of the same engine
// export byte-identical timelines (Reset between runs, same topology).
func TestTraceReRunDeterministic(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "CNN-M", arch.TacitEPCM))
	if err != nil {
		t.Fatal(err)
	}
	r := traceRecorder(eng, 32)
	eng.EnableTrace(r)
	export := func() []byte {
		r.Reset()
		if _, err := eng.RunBatch(32); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Fatal("re-run exported different bytes")
	}
}

// TestTraceDisableDetaches: EnableTrace(nil) stops emission.
func TestTraceDisableDetaches(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "MLP-S", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	r := traceRecorder(eng, 4)
	eng.EnableTrace(r)
	if eng.tr == nil {
		t.Fatal("no tracer attached after EnableTrace")
	}
	if _, err := eng.RunBatch(2); err != nil {
		t.Fatal(err)
	}
	n := r.Len()
	if n == 0 {
		t.Fatal("traced run emitted nothing")
	}
	eng.EnableTrace(nil)
	if eng.tr != nil {
		t.Fatal("tracer still attached after detach")
	}
	if _, err := eng.RunBatch(2); err != nil {
		t.Fatal(err)
	}
	if r.Len() != n {
		t.Fatalf("detached engine still emitted: %d -> %d", n, r.Len())
	}
}

// TestEngineSetTraceOnlyColocated: RunSet's isolated baselines must not
// leak into the shared trace — every engine's events describe the one
// co-located schedule, and per-model flow sums reproduce the co-located
// LinkWaitNs (not iso + co-located).
func TestEngineSetTraceOnlyColocated(t *testing.T) {
	s := newSim(t)
	cs := compileSet(t, []string{"MLP-S", "MLP-M"}, compiler.GreedyPlacer{}, arch.DefaultConfig())
	es, err := s.NewEngineSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	const b = 16
	r := trace.New(2*b*es.TraceEventsPerSample() + 16)
	es.EnableTrace(r)
	sr, err := es.RunSet(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Dropped() != 0 {
		t.Fatalf("sized ring dropped %d events", r.Dropped())
	}
	// Two processes, one per model.
	if got := len(r.Processes()); got != 2 {
		t.Fatalf("processes = %d, want 2", got)
	}
	// Per-process flow sums == co-located LinkWaitNs per model.
	procOf := map[int32]int32{} // track -> process
	for _, tr := range r.Tracks() {
		procOf[tr.ID] = tr.Proc
	}
	waits := map[int32]float64{}
	doneCount := map[int32]int{}
	for _, ev := range r.Events() {
		switch ev.Kind {
		case trace.KindFlow:
			waits[procOf[ev.Track]] += ev.Dur
		case trace.KindInstant:
			doneCount[procOf[ev.Track]]++
		}
	}
	for i, m := range sr.Models {
		pid := int32(i + 1)
		if doneCount[pid] != b {
			t.Fatalf("%s: %d completed samples in trace, want %d (iso run leaked?)",
				m.ModelName, doneCount[pid], b)
		}
		if waits[pid] != m.LinkWaitNs {
			t.Fatalf("%s: trace wait %v != co-located LinkWaitNs %v",
				m.ModelName, waits[pid], m.LinkWaitNs)
		}
	}
}

// TestGoldenB1Trace pins the B=1 MLP-S/EinsteinBarrier Chrome trace
// byte-for-byte. The engine's schedule is platform-deterministic (pure
// float64 arithmetic in a fixed order), so the export must never drift
// without an intentional schema change. Regenerate with
// `go test ./internal/sim -run TestGoldenB1Trace -update`.
func TestGoldenB1Trace(t *testing.T) {
	s := newSim(t)
	eng, err := s.NewEngine(compiled(t, "MLP-S", arch.EinsteinBarrier))
	if err != nil {
		t.Fatal(err)
	}
	r := traceRecorder(eng, 1)
	eng.EnableTrace(r)
	if _, err := eng.RunBatch(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_mlps_eb_b1.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("B=1 trace drifted from golden %s (rerun with -update if intentional)\ngot %d bytes, want %d",
			golden, buf.Len(), len(want))
	}
}
