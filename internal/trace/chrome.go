package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// chromeEvent is one entry in the Chrome trace-event JSON array. Field
// order and encoding/json's sorted map keys make the export
// deterministic, which the golden and worker-invariance tests rely on.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	ID   *int64         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// usec converts recorded nanoseconds to the microseconds Chrome's ts/dur
// fields expect.
func usec(ns float64) float64 { return ns / 1e3 }

// WriteChrome serialises the recorder's snapshot as Chrome trace-event
// JSON (the format chrome://tracing and Perfetto load). Processes and
// tracks become pid/tid metadata; slices become complete ("X") events;
// flows become "s"/"f" arrow pairs (link-wait attribution); async spans
// become "b"/"e" pairs keyed by Seq (request spans); counters become
// "C" samples. Output is byte-deterministic for a deterministic
// producer.
func WriteChrome(w io.Writer, r *Recorder) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ns"}`+"\n")
		return err
	}
	tracks := r.Tracks()
	procs := r.Processes()
	events := r.Events()
	meta := r.metaKVs()

	proc := make(map[int32]int32, len(tracks)) // track id -> pid
	for _, t := range tracks {
		proc[t.ID] = t.Proc
	}

	evs := make([]chromeEvent, 0, 2*len(tracks)+2*len(events))
	for _, p := range procs {
		evs = append(evs, chromeEvent{
			Name: "process_name", Ph: "M", Pid: p.ID,
			Args: map[string]any{"name": p.Name},
		})
	}
	for _, t := range tracks {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: t.Proc, Tid: t.ID,
			Args: map[string]any{"name": t.Name},
		})
		// sort_index keeps registration order as display order.
		evs = append(evs, chromeEvent{
			Name: "thread_sort_index", Ph: "M", Pid: t.Proc, Tid: t.ID,
			Args: map[string]any{"sort_index": t.ID},
		})
	}

	var flowID int64
	for _, ev := range events {
		pid := proc[ev.Track]
		name := r.Name(ev.Name)
		switch ev.Kind {
		case KindSlice:
			d := usec(ev.Dur)
			evs = append(evs, chromeEvent{
				Name: name, Ph: "X", Ts: usec(ev.Start), Dur: &d,
				Pid: pid, Tid: ev.Track,
				Args: sliceArgs(ev),
			})
		case KindInstant:
			evs = append(evs, chromeEvent{
				Name: name, Ph: "i", Ts: usec(ev.Start),
				Pid: pid, Tid: ev.Track, S: "t",
				Args: sliceArgs(ev),
			})
		case KindFlow:
			flowID++
			id := flowID
			dst := int32(ev.A)
			args := map[string]any{"seq": ev.Seq, "wait_ns": ev.Dur}
			evs = append(evs, chromeEvent{
				Name: name, Cat: "wait", Ph: "s", Ts: usec(ev.Start),
				Pid: pid, Tid: ev.Track, ID: &id, Args: args,
			})
			evs = append(evs, chromeEvent{
				Name: name, Cat: "wait", Ph: "f", Ts: usec(ev.Start + ev.Dur),
				Pid: proc[dst], Tid: dst, ID: &id, BP: "e", Args: args,
			})
		case KindAsync:
			id := ev.Seq
			args := sliceArgs(ev)
			evs = append(evs, chromeEvent{
				Name: name, Cat: "span", Ph: "b", Ts: usec(ev.Start),
				Pid: pid, Tid: ev.Track, ID: &id, Args: args,
			})
			evs = append(evs, chromeEvent{
				Name: name, Cat: "span", Ph: "e", Ts: usec(ev.Start + ev.Dur),
				Pid: pid, Tid: ev.Track, ID: &id,
			})
		case KindCounter:
			evs = append(evs, chromeEvent{
				Name: name, Ph: "C", Ts: usec(ev.Start),
				Pid: pid, Tid: ev.Track,
				Args: map[string]any{"value": ev.A},
			})
		}
	}

	out := chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ns"}
	if len(meta) > 0 || r.Dropped() > 0 {
		out.OtherData = make(map[string]string, len(meta)+1)
		for _, kv := range meta {
			out.OtherData[kv.Key] = kv.Value
		}
		if d := r.Dropped(); d > 0 {
			out.OtherData["dropped_events"] = strconv.FormatInt(d, 10)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// sliceArgs packs the event payload into Chrome args; zero payloads are
// elided so timelines stay readable.
func sliceArgs(ev Event) map[string]any {
	args := map[string]any{"seq": ev.Seq}
	if ev.A != 0 {
		args["a"] = ev.A
	}
	if ev.B != 0 {
		args["b"] = ev.B
	}
	return args
}

// CSVHeader is the first line of every WriteCSV export.
const CSVHeader = "kind,pid,tid,track,name,seq,start_ns,dur_ns,a,b"

// WriteCSV serialises the recorder's snapshot as a flat CSV — one row
// per event — for spreadsheet and pandas-style analysis. Same
// determinism contract as WriteChrome.
func WriteCSV(w io.Writer, r *Recorder) error {
	if _, err := io.WriteString(w, CSVHeader+"\n"); err != nil {
		return err
	}
	if r == nil {
		return nil
	}
	tracks := r.Tracks()
	proc := make(map[int32]int32, len(tracks))
	tname := make(map[int32]string, len(tracks))
	for _, t := range tracks {
		proc[t.ID] = t.Proc
		tname[t.ID] = t.Name
	}
	for _, ev := range r.Events() {
		_, err := fmt.Fprintf(w, "%s,%d,%d,%s,%s,%d,%s,%s,%s,%s\n",
			ev.Kind, proc[ev.Track], ev.Track,
			csvQuote(tname[ev.Track]), csvQuote(r.Name(ev.Name)), ev.Seq,
			ftoa(ev.Start), ftoa(ev.Dur), ftoa(ev.A), ftoa(ev.B))
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteFiles writes r as Chrome-trace JSON to chromePath and as flat
// CSV to csvPath. A nil recorder (tracing off) or an empty path writes
// nothing.
func WriteFiles(r *Recorder, chromePath, csvPath string) error {
	if err := writeFile(r, chromePath, WriteChrome); err != nil {
		return err
	}
	return writeFile(r, csvPath, WriteCSV)
}

func writeFile(r *Recorder, path string, enc func(io.Writer, *Recorder) error) error {
	if r == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := enc(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ftoa renders a float with the shortest exact representation —
// strconv's 'g'/-1 is deterministic, so CSV exports golden-pin cleanly.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// csvQuote guards names that would break the row format.
func csvQuote(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ',' || s[i] == '"' || s[i] == '\n' {
			return strconv.Quote(s)
		}
	}
	return s
}
