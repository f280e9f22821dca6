package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/tensor"
)

// textOf renders a table as aligned text.
func textOf(t *testing.T, tb *report.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tb.Text(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestScheduleDeterministic: the open-loop arrival schedule is a pure
// function of (seed, rate, n) — reproducible runs on any host.
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(11, 5000, 64)
	b := Schedule(11, 5000, 64)
	if len(a) != 64 {
		t.Fatalf("schedule length %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs across identical seeds: %v != %v", i, a[i], b[i])
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("offsets not strictly increasing at %d: %v ≤ %v", i, a[i], a[i-1])
		}
	}
	c := Schedule(12, 5000, 64)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestClosedLoopLoadgen: every request of a closed-loop run completes,
// the metrics block accounts for all of them, and dynamic batching
// actually batched (mean batch > 1 with more clients than batch slots).
func TestClosedLoopLoadgen(t *testing.T) {
	model := zooModel(t, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: backend, MaxBatch: 16, MaxWait: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, LoadConfig{
		Clients:  8,
		Requests: 120,
		Seed:     5,
		Inputs:   testInputs(t, model, 16, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if rep.Completed != 120 || rep.Shed != 0 || rep.Failed != 0 {
		t.Fatalf("completed %d shed %d failed %d, want 120/0/0", rep.Completed, rep.Shed, rep.Failed)
	}
	if rep.Stats.Completed != 120 || rep.Stats.Accepted != 120 {
		t.Fatalf("stats completed %d accepted %d, want 120/120", rep.Stats.Completed, rep.Stats.Accepted)
	}
	if rep.AchievedPerSec <= 0 || rep.Stats.Latency.P99 <= 0 {
		t.Fatalf("throughput %v p99 %v, want > 0", rep.AchievedPerSec, rep.Stats.Latency.P99)
	}
	if rep.Stats.MeanBatch <= 1 {
		t.Logf("mean batch %.2f (closed loop did not batch on this host — acceptable)", rep.Stats.MeanBatch)
	}
}

// slowBackend serves any batch in a fixed service time — a backend with
// a known capacity, for overload tests.
type slowBackend struct {
	service time.Duration
}

func (b slowBackend) Name() string      { return "test/slow" }
func (b slowBackend) InputShape() []int { return []int{4} }
func (b slowBackend) NewReplica() (Replica, error) {
	return slowReplica{b.service}, nil
}

type slowReplica struct{ service time.Duration }

func (r slowReplica) RunBatch(xs []*tensor.Float, out []Prediction) error {
	time.Sleep(r.service)
	for i := range out {
		out[i] = Prediction{Class: 0, Logits: []float64{1}}
	}
	return nil
}

// TestOpenLoopOverloadShedsAndBoundsTail: offered load ~5× capacity —
// the bounded queue must shed, every accepted request must still
// complete, and the tail latency stays bounded by the queue depth
// rather than growing with the arrival backlog.
func TestOpenLoopOverloadShedsAndBoundsTail(t *testing.T) {
	// Capacity: MaxBatch=4 per 2ms ⇒ 2000 req/s. Offered: 10000 req/s.
	s, err := New(Config{
		Backend:  slowBackend{service: 2 * time.Millisecond},
		MaxBatch: 4,
		MaxWait:  100 * time.Microsecond,
		QueueCap: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(s, LoadConfig{
		Rate:     10000,
		Requests: 200,
		Seed:     21,
		Inputs:   []*tensor.Float{tensor.NewFloat(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if rep.Completed+rep.Shed+rep.Failed != 200 {
		t.Fatalf("requests unaccounted: %d + %d + %d != 200", rep.Completed, rep.Shed, rep.Failed)
	}
	if rep.Shed == 0 {
		t.Fatal("overload did not shed: admission control is not engaging")
	}
	if rep.Failed != 0 {
		t.Fatalf("%d requests failed (only shedding is expected)", rep.Failed)
	}
	if rep.Stats.ShedRate <= 0 {
		t.Fatalf("shed rate %v, want > 0", rep.Stats.ShedRate)
	}
	// Tail bound: ≤ (QueueCap + 2 batches in flight) service times, with
	// generous scheduling slack — the point is "finite and queue-bound",
	// not a tight constant.
	if p99 := rep.Stats.Latency.P99; p99 <= 0 || p99 > 500 {
		t.Fatalf("p99 %v ms, want finite and ≪ 500ms under overload", p99)
	}
}

// TestSweepRatesAndWriters: the rate sweep produces one point per rate
// on a fresh server each, and the CSV/JSON exports round-trip.
func TestSweepRatesAndWriters(t *testing.T) {
	model := zooModel(t, "MLP-S")
	inputs := testInputs(t, model, 8, 13)
	newServer := func() (*Server, error) {
		backend, err := NewSoftwareBackend(model, 1)
		if err != nil {
			return nil, err
		}
		return New(Config{Backend: backend, MaxBatch: 16, MaxWait: 200 * time.Microsecond})
	}
	points, err := SweepRates(newServer, []float64{2000, 8000}, LoadConfig{
		Requests: 60,
		Seed:     31,
		Inputs:   inputs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].RatePerSec != 2000 || points[1].RatePerSec != 8000 {
		t.Fatalf("sweep points wrong: %+v", points)
	}
	for _, p := range points {
		if p.Report.Completed+p.Report.Shed+p.Report.Failed != 60 {
			t.Fatalf("rate %v: requests unaccounted", p.RatePerSec)
		}
	}

	var buf bytes.Buffer
	if err := LoadCurve(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != "rate_per_sec" {
		t.Fatalf("CSV shape wrong: %d rows, header %v", len(recs), recs[0])
	}

	buf.Reset()
	if err := report.JSON(&buf, points); err != nil {
		t.Fatal(err)
	}
	var back []RatePoint
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].RatePerSec != 2000 {
		t.Fatalf("JSON round-trip wrong: %+v", back)
	}

	table := textOf(t, LoadCurve(points))
	for _, frag := range []string{"rate/s", "p99 ms", "2000", "8000"} {
		if !strings.Contains(table, frag) {
			t.Fatalf("table missing %q:\n%s", frag, table)
		}
	}
}

// TestLoadConfigValidation covers the error paths.
func TestLoadConfigValidation(t *testing.T) {
	model := zooModel(t, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	for name, cfg := range map[string]LoadConfig{
		"no requests": {Inputs: testInputs(t, model, 1, 1)},
		"no inputs":   {Requests: 5},
		"neg rate":    {Requests: 5, Rate: -1, Inputs: testInputs(t, model, 1, 1)},
		"NaN rate":    {Requests: 5, Rate: math.NaN(), Inputs: testInputs(t, model, 1, 1)},
		"inf rate":    {Requests: 5, Rate: math.Inf(1), Inputs: testInputs(t, model, 1, 1)},
	} {
		if _, err := Run(s, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := SweepRates(func() (*Server, error) { return s, nil }, nil, LoadConfig{}); err == nil {
		t.Error("empty sweep accepted")
	}
}

// TestSweepMaxBatch: the MaxBatch sweep runs the closed loop once per
// cap, every request completes at every point, and larger caps actually
// form larger batches (the precondition for the bit-parallel speedup).
func TestSweepMaxBatch(t *testing.T) {
	model := zooModel(t, "MLP-S")
	points, err := SweepMaxBatch(func(mb int) (*Server, error) {
		backend, err := NewSoftwareBackend(model, 1)
		if err != nil {
			return nil, err
		}
		return New(Config{Backend: backend, MaxBatch: mb, MaxWait: 200 * time.Microsecond})
	}, []int{1, 8}, LoadConfig{
		Requests: 64,
		Seed:     3,
		Inputs:   testInputs(t, model, 16, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].MaxBatch != 1 || points[1].MaxBatch != 8 {
		t.Fatalf("points = %+v", points)
	}
	for _, p := range points {
		if p.Report.Completed != 64 || p.Report.Shed != 0 || p.Report.Failed != 0 {
			t.Fatalf("maxBatch %d: %+v", p.MaxBatch, p.Report)
		}
	}
	if points[1].Report.Stats.MeanBatch <= points[0].Report.Stats.MeanBatch {
		t.Fatalf("cap 8 did not batch more than cap 1: %v vs %v",
			points[1].Report.Stats.MeanBatch, points[0].Report.Stats.MeanBatch)
	}

	tbl := textOf(t, BatchCurve(points))
	for _, frag := range []string{"max-batch", "achieved/s", "mean batch"} {
		if !strings.Contains(tbl, frag) {
			t.Fatalf("batch table missing %q:\n%s", frag, tbl)
		}
	}
	var buf bytes.Buffer
	if err := BatchCurve(points).CSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0][0] != "max_batch" || recs[1][0] != "1" || recs[2][0] != "8" {
		t.Fatalf("CSV shape wrong: %v", recs)
	}
	buf.Reset()
	if err := report.JSON(&buf, points); err != nil {
		t.Fatal(err)
	}
	var back []BatchPoint
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].MaxBatch != 8 {
		t.Fatalf("JSON round trip: %+v", back)
	}

	// Validation: empty and non-positive caps are rejected.
	if _, err := SweepMaxBatch(nil, nil, LoadConfig{}); err == nil {
		t.Fatal("accepted empty sweep")
	}
	if _, err := SweepMaxBatch(nil, []int{0}, LoadConfig{}); err == nil {
		t.Fatal("accepted MaxBatch 0")
	}
}

// TestDiurnalSchedule: the rate-modulated schedule is a pure function
// of its arguments, offsets are ordered, and arrivals concentrate in
// the crest half of each period.
func TestDiurnalSchedule(t *testing.T) {
	a, err := DiurnalSchedule(9, 10, 100, time.Second, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DiurnalSchedule(9, 10, 100, time.Second, 500)
	if len(a) != 500 {
		t.Fatalf("schedule length %d", len(a))
	}
	crest, trough := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("offset %d differs across identical seeds: %v != %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("offsets decrease at %d: %v < %v", i, a[i], a[i-1])
		}
		// The rate troughs at phase 0 and crests at phase 0.5.
		phase := a[i].Seconds() - float64(int(a[i].Seconds()))
		if phase >= 0.25 && phase < 0.75 {
			crest++
		} else {
			trough++
		}
	}
	if crest < 2*trough {
		t.Fatalf("no diurnal modulation: %d crest vs %d trough arrivals", crest, trough)
	}
	for name, call := range map[string]func() ([]time.Duration, error){
		"zero base":       func() ([]time.Duration, error) { return DiurnalSchedule(9, 0, 100, time.Second, 10) },
		"peak below base": func() ([]time.Duration, error) { return DiurnalSchedule(9, 10, 5, time.Second, 10) },
		"zero period":     func() ([]time.Duration, error) { return DiurnalSchedule(9, 10, 100, 0, 10) },
		"zero n":          func() ([]time.Duration, error) { return DiurnalSchedule(9, 10, 100, time.Second, 0) },
		"NaN peak":        func() ([]time.Duration, error) { return DiurnalSchedule(9, 10, math.NaN(), time.Second, 10) },
		"infinite base":   func() ([]time.Duration, error) { return DiurnalSchedule(9, math.Inf(1), math.Inf(1), time.Second, 10) },
	} {
		if _, err := call(); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}
