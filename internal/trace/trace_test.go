package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := New(4)
	if len(r.buf) != 4 || r.Len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", len(r.buf), r.Len())
	}
	p := r.AddProcess("engine")
	tr := r.AddTrack(p, "stage0")
	name := r.Intern("busy")
	if p != 1 || tr != 1 || name != 1 {
		t.Fatalf("ids: p=%d tr=%d name=%d", p, tr, name)
	}
	if again := r.Intern("busy"); again != name {
		t.Fatalf("Intern not idempotent: %d vs %d", again, name)
	}
	for i := 0; i < 3; i++ {
		r.Emit(Event{Kind: KindSlice, Track: tr, Name: name, Seq: int64(i), Start: float64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len=%d want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d — order lost", i, ev.Seq)
		}
	}
}

func TestRingOverflowKeepsNewest(t *testing.T) {
	r := New(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Seq: int64(i)})
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped=%d want 6", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len=%d want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Seq != want {
			t.Fatalf("event %d: seq=%d want %d (newest must survive)", i, ev.Seq, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatalf("after Reset: len=%d dropped=%d", r.Len(), r.Dropped())
	}
	r.Emit(Event{Seq: 99})
	if evs := r.Events(); len(evs) != 1 || evs[0].Seq != 99 {
		t.Fatalf("post-reset emit lost: %+v", evs)
	}
}

// TestNilRecorderSafe pins the disabled-recorder contract: every method
// on a nil *Recorder is a safe no-op.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Event{})
	r.Reset()
	r.SetMeta("k", "v")
	if r.Intern("x") != 0 || r.AddProcess("p") != 0 || r.AddTrack(1, "t") != 0 {
		t.Fatal("nil recorder returned non-zero id")
	}
	if r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder has state")
	}
	if r.Events() != nil || r.Tracks() != nil || r.Processes() != nil || r.metaKVs() != nil {
		t.Fatal("nil recorder returned data")
	}
	if r.Name(1) != "" {
		t.Fatal("nil recorder returned a name")
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("nil-recorder chrome export not JSON: %v", err)
	}
	buf.Reset()
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != CSVHeader {
		t.Fatalf("nil-recorder CSV = %q", got)
	}
}

// TestDisabledRecorderZeroAlloc pins the hot-path cost of tracing when
// it is off: the nil-receiver Emit must not allocate.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	ev := Event{Kind: KindSlice, Track: 1, Name: 1, Seq: 7, Start: 1, Dur: 2}
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(ev)
	}); n != 0 {
		t.Fatalf("disabled Emit allocates %v/op, want 0", n)
	}
}

// TestEnabledEmitZeroAlloc pins the steady-state cost when tracing is
// on: the ring is preallocated, so Emit must not allocate either.
func TestEnabledEmitZeroAlloc(t *testing.T) {
	r := New(64)
	ev := Event{Kind: KindSlice, Track: 1, Name: 1, Seq: 7, Start: 1, Dur: 2}
	if n := testing.AllocsPerRun(1000, func() {
		r.Emit(ev)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %v/op, want 0", n)
	}
}

func TestSetMetaLastWriteWins(t *testing.T) {
	r := New(4)
	r.SetMeta("batch", "16")
	r.SetMeta("makespan_ns", "100")
	r.SetMeta("batch", "256")
	m := r.metaKVs()
	if len(m) != 2 || m[0] != (MetaKV{"batch", "256"}) || m[1] != (MetaKV{"makespan_ns", "100"}) {
		t.Fatalf("meta = %+v", m)
	}
}

func TestWriteChromeShape(t *testing.T) {
	r := New(16)
	p := r.AddProcess("MLP-S on EinsteinBarrier")
	st := r.AddTrack(p, "stage[0] input")
	lk := r.AddTrack(p, "fwd link 0->1")
	busy := r.Intern("busy")
	wait := r.Intern("link-wait")
	done := r.Intern("sample-done")
	span := r.Intern("request")
	q := r.Intern("queue-depth")

	r.Emit(Event{Kind: KindSlice, Track: st, Name: busy, Seq: 0, Start: 0, Dur: 100, A: 3})
	r.Emit(Event{Kind: KindFlow, Track: st, Name: wait, Seq: 0, Start: 100, Dur: 25, A: float64(lk)})
	r.Emit(Event{Kind: KindInstant, Track: st, Name: done, Seq: 0, Start: 150})
	r.Emit(Event{Kind: KindAsync, Track: lk, Name: span, Seq: 42, Start: 10, Dur: 200, B: 8})
	r.Emit(Event{Kind: KindCounter, Track: lk, Name: q, Start: 5, A: 3})
	r.SetMeta("batch", "1")

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]string
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export not JSON: %v\n%s", err, buf.String())
	}
	if parsed.OtherData["batch"] != "1" {
		t.Fatalf("otherData = %v", parsed.OtherData)
	}
	count := map[string]int{}
	for _, ev := range parsed.TraceEvents {
		count[ev["ph"].(string)]++
	}
	// 1 process_name + 2 thread_name + 2 thread_sort_index metadata.
	want := map[string]int{"M": 5, "X": 1, "s": 1, "f": 1, "i": 1, "b": 1, "e": 1, "C": 1}
	for ph, n := range want {
		if count[ph] != n {
			t.Fatalf("ph %q: got %d want %d (all: %v)", ph, count[ph], n, count)
		}
	}
	// Flow source/destination must land on the right tracks with
	// matching ids so the arrow renders.
	var src, dst map[string]any
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "s":
			src = ev
		case "f":
			dst = ev
		}
	}
	if src["id"] != dst["id"] {
		t.Fatalf("flow ids differ: %v vs %v", src["id"], dst["id"])
	}
	if int32(src["tid"].(float64)) != st || int32(dst["tid"].(float64)) != lk {
		t.Fatalf("flow tracks: s tid=%v f tid=%v want %d -> %d", src["tid"], dst["tid"], st, lk)
	}
	if dst["ts"].(float64) != usec(125) {
		t.Fatalf("flow end ts=%v want %v", dst["ts"], usec(125))
	}
}

func TestWriteChromeDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New(8)
		p := r.AddProcess("p")
		tr := r.AddTrack(p, "t")
		n := r.Intern("e")
		for i := 0; i < 12; i++ { // overflow on purpose
			r.Emit(Event{Kind: KindSlice, Track: tr, Name: n, Seq: int64(i), Start: float64(i), Dur: 1})
		}
		r.SetMeta("k", "v")
		return r
	}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical recorders exported different bytes")
	}
	a.Reset()
	b.Reset()
	if err := WriteCSV(&a, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical recorders exported different CSV bytes")
	}
}

func TestWriteCSVShape(t *testing.T) {
	r := New(8)
	p := r.AddProcess("p")
	tr := r.AddTrack(p, "with,comma")
	n := r.Intern("busy")
	r.Emit(Event{Kind: KindSlice, Track: tr, Name: n, Seq: 3, Start: 1.5, Dur: 2.25, A: 4, B: 0.5})
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %q", lines)
	}
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q", lines[0])
	}
	want := `slice,1,1,"with,comma",busy,3,1.5,2.25,4,0.5`
	if lines[1] != want {
		t.Fatalf("row = %q want %q", lines[1], want)
	}
}

// TestWriteFiles: each non-empty path gets its encoding; a nil recorder
// or an empty path creates no file.
func TestWriteFiles(t *testing.T) {
	dir := t.TempDir()
	r := New(4)
	r.Emit(Event{Kind: KindSlice, Track: r.AddTrack(r.AddProcess("p"), "t"), Name: r.Intern("busy"), Dur: 10})
	chrome, csv := filepath.Join(dir, "t.json"), filepath.Join(dir, "t.csv")
	if err := WriteFiles(r, chrome, csv); err != nil {
		t.Fatal(err)
	}
	for path, prefix := range map[string]string{chrome: "{", csv: CSVHeader} {
		b, err := os.ReadFile(path)
		if err != nil || !strings.HasPrefix(string(b), prefix) {
			t.Fatalf("%s: %v %.40q", path, err, b)
		}
	}
	skipped := filepath.Join(dir, "nil.json")
	if err := WriteFiles(nil, skipped, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(skipped); !os.IsNotExist(err) {
		t.Fatalf("nil recorder wrote %s", skipped)
	}
}
