package eval

import (
	"bytes"
	"encoding/json"
	"testing"

	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/trace"
)

// TestLifetimeTraceRecorder pins the canary-series mapping into the
// shared trace representation.
func TestLifetimeTraceRecorder(t *testing.T) {
	rep := LifetimeReport{
		Model: "MLP-S", Design: "EinsteinBarrier",
		HorizonSeconds: 120, Recalibrations: 1, FallbackServed: 3,
		Trace: []serve.CanaryPoint{
			{Replica: 0, ServedSamples: 4, AgeSeconds: 80, Accuracy: 0.9},
			{Replica: 1, ServedSamples: 6, AgeSeconds: 120, Accuracy: 0.75, Flagged: true},
			{Replica: 1, ServedSamples: 6, AgeSeconds: 0, Accuracy: 1, PostRecal: true},
		},
	}
	r := LifetimeTraceRecorder(rep)
	if got := len(r.Tracks()); got != 2 {
		t.Fatalf("tracks = %d, want one per replica (2)", got)
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("events = %d, want 3", len(evs))
	}
	wantNames := []string{"canary", "flagged", "post-recal"}
	for i, ev := range evs {
		if ev.Kind != trace.KindCounter {
			t.Fatalf("event %d kind %v", i, ev.Kind)
		}
		if got := r.Name(ev.Name); got != wantNames[i] {
			t.Fatalf("event %d name %q, want %q", i, got, wantNames[i])
		}
		if ev.A != rep.Trace[i].Accuracy || ev.B != rep.Trace[i].AgeSeconds {
			t.Fatalf("event %d payload (%v,%v) != point (%v,%v)",
				i, ev.A, ev.B, rep.Trace[i].Accuracy, rep.Trace[i].AgeSeconds)
		}
		if ev.Seq != rep.Trace[i].ServedSamples {
			t.Fatalf("event %d seq %d != served %d", i, ev.Seq, rep.Trace[i].ServedSamples)
		}
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any  `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("lifetime trace not JSON: %v", err)
	}
	if parsed.OtherData["time_axis"] != "served_samples" || parsed.OtherData["fallback_served"] != "3" {
		t.Fatalf("otherData = %v", parsed.OtherData)
	}
}
