package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/serve"
)

func init() {
	if err := loadPins(); err != nil {
		panic(err)
	}
}

// runBench runs one workload through bench and decodes its result line.
func runBench(t *testing.T, workload string, seconds float64, traced bool) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	o := options{workload: workload, seed: 3, seconds: seconds, trace: traced,
		repo: "..", traceDir: t.TempDir(), setupRuns: 1}
	if err := bench(o, &stdout, &stderr); err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, lines[len(lines)-1], err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, r.Correct, r.Attempted, r.Failed, stderr.String())
	}
	return r
}

// TestSmoke runs every workload briefly, untraced and traced, and
// checks that each reports its full metric set with no failed check.
func TestSmoke(t *testing.T) {
	seconds := map[string]float64{"serve-http": 1, "hw-lifetime": 0.5, "dse-search": 0.2}
	for _, w := range []string{"serve-http", "hw-lifetime", "dse-search"} {
		t.Run(w, func(t *testing.T) {
			if raceEnabled && w == "serve-http" {
				t.Skip("the open-loop schedule is out of reach under the race detector")
			}
			r := runBench(t, w, seconds[w], false)
			for _, m := range []string{"setup_s", "throughput_per_s", "latency_p50_ms",
				"latency_p90_ms", "latency_p99_ms", "live_heap_mb"} {
				if v, ok := r.Metrics[m]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want > 0", m, v)
				}
			}
			if testing.Short() {
				return
			}
			r = runBench(t, w, seconds[w], true)
			if len(r.Metrics) != len(layerNames) {
				t.Errorf("traced run reports %d metrics, want %d", len(r.Metrics), len(layerNames))
			}
		})
	}
}

// TestSearchWrapperInvariant: the traced evaluator wrapper leaves the
// search result and the evaluator counters untouched, and both match
// the pins.
func TestSearchWrapperInvariant(t *testing.T) {
	plain := &dseSearch{env: env{repo: ".."}}
	traced := &dseSearch{env: env{repo: "..", probe: newProbe("dse-search")}}
	for _, w := range []*dseSearch{plain, traced} {
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if len(w.warm.problems) > 0 {
			t.Fatal(w.warm.problems)
		}
	}
	for _, i := range []int{0, 3} {
		for _, d := range dseDesigns {
			m := plain.zoo[i]
			a, _, err := plain.search(m, d, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, sp, err := traced.search(traced.zoo[i], d, 2)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Errorf("%s/%v: traced %+v, untraced %+v", m.Name(), d, b, a)
			}
			if want := pins.Search[searchKey(m.Name(), d, 2)]; a != want {
				t.Errorf("%s/%v: %+v, pinned %+v", m.Name(), d, a, want)
			}
			if sp.scores != b.Counters.Lookups-sp.hits || sp.probes == 0 {
				t.Errorf("%s/%v: wrapper saw %d scores, %d probes (%d hits); evaluator %+v",
					m.Name(), d, sp.scores, sp.probes, sp.hits, b.Counters)
			}
		}
	}
}

// TestLifetimeWrapperInvariant: the traced replica wrapper (which must
// forward Age, Recalibrate and InjectFaults) leaves the reply classes,
// the canary trace and the lifetime counts of two full cycles unchanged.
// The runs are given an hour, so their round limit cuts them and each
// must say so in a note.
func TestLifetimeWrapperInvariant(t *testing.T) {
	const rounds = 2*2*lifeCanaryEvery + 1
	var classes []string
	var traces [][]string
	var stats []*serve.LifetimeSnapshot
	for _, p := range []*probe{nil, newProbe("hw-lifetime")} {
		w := &hwLifetime{env: env{seed: 5, probe: p}, limit: rounds}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		out, err := w.measure(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.finish(out); err != nil {
			t.Fatal(err)
		}
		if len(out.problems) > 0 || out.failed > 0 {
			t.Fatalf("traced=%v: %v", p != nil, out.problems)
		}
		if len(out.notes) != 1 {
			t.Errorf("traced=%v: a run cut by its round limit made notes %q, want one", p != nil, out.notes)
		}
		classes = append(classes, string(w.classes))
		traces = append(traces, encodeTrace(w.srv.Trace()))
		stats = append(stats, w.srv.Stats().Lifetime)
		if p != nil {
			if got := len(p.get(spanAge)); got != rounds {
				t.Errorf("wrapper saw %d Age calls, want %d", got, rounds)
			}
			if got := int64(len(p.get(spanRecal))); got != stats[1].Recalibrations || got < 2 {
				t.Errorf("wrapper saw %d recalibrations, server %d (want ≥ 2)", got, stats[1].Recalibrations)
			}
		}
	}
	if classes[0] != classes[1] {
		t.Errorf("classes differ:\n%s\n%s", classes[0], classes[1])
	}
	if !reflect.DeepEqual(traces[0], traces[1]) {
		t.Errorf("canary traces differ:\n%v\n%v", traces[0], traces[1])
	}
	if stats[0].Recalibrations != stats[1].Recalibrations ||
		stats[0].Replicas[0].CanaryRuns != stats[1].Replicas[0].CanaryRuns {
		t.Errorf("lifetime counts differ: %+v vs %+v", stats[0].Replicas[0], stats[1].Replicas[0])
	}
}

// TestServeWrapperInvariant: the traced backend wrapper leaves every
// /infer reply (class, logits, batch) unchanged.
func TestServeWrapperInvariant(t *testing.T) {
	var replies [][]serve.InferResponse
	for _, p := range []*probe{nil, newProbe("serve-http")} {
		w := &serveHTTP{env: env{seed: 4, probe: p}}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		var got []serve.InferResponse
		for i := range w.bodies {
			rec := httptest.NewRecorder()
			w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(w.bodies[i])))
			var r serve.InferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("status %d: %v", rec.Code, err)
			}
			if r.Class != w.want[i] {
				t.Errorf("payload %d: class %d, software model says %d", i, r.Class, w.want[i])
			}
			r.RequestID, r.BatchSeq, r.QueueMs, r.LatencyMs = 0, 0, 0, 0
			got = append(got, r)
		}
		if err := w.finish(nil); err != nil {
			t.Fatal(err)
		}
		if p != nil && len(p.get(spanRunBatch)) < len(w.bodies) {
			t.Errorf("wrapper saw %d batches for %d sequential requests", len(p.get(spanRunBatch)), len(w.bodies))
		}
		replies = append(replies, got)
	}
	if !reflect.DeepEqual(replies[0], replies[1]) {
		t.Error("traced replies differ from untraced ones")
	}
}

// TestBenchmarkJSON: the metrics the program prints are the ones
// BENCHMARK.json declares, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var decl struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	var layers []entry
	for _, l := range layerNames {
		layers = append(layers, entry{l.name, l.unit, l.better})
	}
	if !reflect.DeepEqual(decl.PerLayer, layers) {
		t.Errorf("per_layer in BENCHMARK.json differs from layerNames:\n%v\n%v", decl.PerLayer, layers)
	}
	r := runBench(t, "dse-search", 0.1, false)
	if len(r.Metrics) != len(decl.EndToEnd) {
		t.Errorf("program prints %d end-to-end metrics, BENCHMARK.json declares %d", len(r.Metrics), len(decl.EndToEnd))
	}
	for _, e := range decl.EndToEnd {
		if m, ok := r.Metrics[e.Name]; !ok || m.Unit != e.Unit {
			t.Errorf("end-to-end metric %s: printed %+v, declared unit %s", e.Name, m, e.Unit)
		}
	}
}

// TestQuantile pins the interpolation the metrics use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty quantile must be 0")
	}
}

// TestStealSamplesBracketPhase: the first and last steal readings
// bracket a timed phase, including windows that begin or end with it,
// however short the phase is against the sampling interval.
func TestStealSamplesBracketPhase(t *testing.T) {
	stop := make(chan struct{})
	samples := sampleSteal(stop, time.Hour)
	from := time.Now()
	time.Sleep(time.Millisecond)
	to := time.Now()
	close(stop)
	ss := <-samples
	if len(ss) != 2 {
		t.Fatalf("%d samples, want 2", len(ss))
	}
	if ss[0].at.After(from) || ss[1].at.Before(to) {
		t.Errorf("samples at %v and %v do not bracket [%v, %v)", ss[0].at, ss[1].at, from, to)
	}
}
