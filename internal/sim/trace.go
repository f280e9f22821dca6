package sim

import (
	"fmt"
	"strconv"

	"einsteinbarrier/internal/trace"
)

// Engine trace instrumentation. EnableTrace attaches a trace.Recorder
// to an engine; every subsequent RunBatch/runSample emits one event per
// stage occupancy interval, per link/chip-port booking on each virtual
// channel, and per completed sample — the schedule the calendar
// (resClock) actually built, not a reconstruction. All emission sites
// sit behind a single nil check, so an untraced run pays one predicted
// branch per stage and zero allocations (pinned by BenchmarkTrace and
// the engine bit-identity test), and tracing never touches the
// floating-point scheduling state, so traced and untraced results are
// bit-identical.
//
// Track scheme (Chrome-trace tids, in registration order):
//
//	samples             one instant per completed sample (host arrival)
//	stage[i] <name>     compute occupancy slices, Seq = sample index
//	fwd link/port …     forward-VC bookings of the anchor→anchor routes
//	bulk link/port …    bulk-VC bookings of the gather/scatter drains
//
// Link-wait is a flow arrow from the stalled stage's track to the first
// resource of the contended route; its duration is exactly the term
// added to BatchResult.LinkWaitNs at the same site, in the same order,
// so summing the flow durations of a trace reproduces LinkWaitNs
// bit-exactly (zero waits are skipped — adding 0.0 is the identity).
// Likewise the per-stage slice durations sum to the stage's busy time
// bit-exactly. TestTraceSumsMatchAggregates pins both.

// engineTrace is the per-engine emission state: the recorder plus the
// pre-registered track ids and interned names, so the hot path does no
// string work.
type engineTrace struct {
	r      *trace.Recorder
	proc   int32
	sample int32   // "samples" track
	stage  []int32 // per-stage compute track
	nm     []int32 // per-stage interned display name

	fwdLink  map[linkKey]int32
	fwdPort  map[int]int32
	bulkLink map[linkKey]int32
	bulkPort map[int]int32

	waitNm  int32 // "link-wait" (forward VC)
	drainNm int32 // "drain-wait" (bulk VC)
	doneNm  int32 // "sample-done"
	seq     int64 // next sample index on this engine's timeline
}

// EnableTrace attaches a recorder to the engine: it registers one
// process (the model on its design), a sample-completion track, one
// track per stage, and one track per interconnect resource the
// compiled routes touch, then arms emission in runSample. Passing nil
// detaches (zero-cost runs again). The registration order is fixed by
// the stage order of the compilation, so exports are deterministic.
func (e *Engine) EnableTrace(r *trace.Recorder) {
	if r == nil {
		e.tr = nil
		return
	}
	et := &engineTrace{
		r:        r,
		fwdLink:  map[linkKey]int32{},
		fwdPort:  map[int]int32{},
		bulkLink: map[linkKey]int32{},
		bulkPort: map[int]int32{},
	}
	et.proc = r.AddProcess(fmt.Sprintf("%s on %v", e.res.ModelName, e.res.Design))
	et.sample = r.AddTrack(et.proc, "samples")
	et.waitNm = r.Intern("link-wait")
	et.drainNm = r.Intern("drain-wait")
	et.doneNm = r.Intern("sample-done")
	for i, st := range e.stages {
		et.stage = append(et.stage, r.AddTrack(et.proc, fmt.Sprintf("stage[%d] %s", i, st.name)))
		et.nm = append(et.nm, r.Intern(st.name))
	}
	addLink := func(m map[linkKey]int32, vc string, l linkKey) {
		if _, ok := m[l]; !ok {
			m[l] = r.AddTrack(et.proc, fmt.Sprintf("%s link n%d:%d->%d", vc, l.node, l.from, l.to))
		}
	}
	addPort := func(m map[int]int32, vc string, p int) {
		if _, ok := m[p]; !ok {
			m[p] = r.AddTrack(et.proc, fmt.Sprintf("%s chip-port n%d", vc, p))
		}
	}
	for _, st := range e.stages {
		for _, l := range st.links {
			addLink(et.fwdLink, "fwd", l)
		}
		for _, p := range st.chipPorts {
			addPort(et.fwdPort, "fwd", p)
		}
		for _, bt := range st.bulk {
			for _, l := range bt.links {
				addLink(et.bulkLink, "bulk", l)
			}
			for _, p := range bt.ports {
				addPort(et.bulkPort, "bulk", p)
			}
		}
	}
	e.tr = et
}

// TraceEventsPerSample returns how many events one sample emits at
// most — size a recorder ring as B × this (plus slack for metadata) so
// a batch export drops nothing.
func (e *Engine) TraceEventsPerSample() int {
	n := 1 // sample-done instant
	for _, st := range e.stages {
		n += 2 + len(st.links) + len(st.chipPorts) // slice + wait flow + bookings
		for _, bt := range st.bulk {
			n += 1 + len(bt.links) + len(bt.ports) // wait flow + bookings
		}
	}
	return n
}

// traceMeta stamps batch-level metadata onto the recorder after a run.
func (e *Engine) traceMeta(b int, makespan float64) {
	if e.tr == nil {
		return
	}
	r := e.tr.r
	r.SetMeta("model", e.res.ModelName)
	r.SetMeta("design", e.res.Design.String())
	r.SetMeta("batch", strconv.Itoa(b))
	r.SetMeta("makespan_ns", strconv.FormatFloat(makespan, 'g', -1, 64))
	r.SetMeta("fill_latency_ns", strconv.FormatFloat(e.res.LatencyNs, 'g', -1, 64))
	r.SetMeta("link_wait_ns", strconv.FormatFloat(e.linkWaitNs, 'g', -1, 64))
}

// traceStage emits one stage's compute occupancy slice.
func (et *engineTrace) traceStage(si int, seq int64, start, serviceNs float64) {
	et.r.Emit(trace.Event{
		Kind: trace.KindSlice, Track: et.stage[si], Name: et.nm[si],
		Seq: seq, Start: start, Dur: serviceNs,
	})
}

// traceXfer emits one transfer: the contention-wait flow arrow (when
// the booking slipped past ready) and the booked occupancy slice on
// every link and chip port of the route.
func (et *engineTrace) traceXfer(si int, seq int64, ready, booked, serNs, portNs float64,
	links []linkKey, ports []int, linkTrack map[linkKey]int32, portTrack map[int]int32, waitNm int32) {
	if booked > ready {
		dst := int32(0)
		if len(links) > 0 {
			dst = linkTrack[links[0]]
		} else if len(ports) > 0 {
			dst = portTrack[ports[0]]
		}
		et.r.Emit(trace.Event{
			Kind: trace.KindFlow, Track: et.stage[si], Name: waitNm,
			Seq: seq, Start: ready, Dur: booked - ready, A: float64(dst),
		})
	}
	for _, l := range links {
		et.r.Emit(trace.Event{
			Kind: trace.KindSlice, Track: linkTrack[l], Name: et.nm[si],
			Seq: seq, Start: booked, Dur: serNs,
		})
	}
	for _, p := range ports {
		et.r.Emit(trace.Event{
			Kind: trace.KindSlice, Track: portTrack[p], Name: et.nm[si],
			Seq: seq, Start: booked, Dur: portNs,
		})
	}
}

// traceDone emits the sample-completion instant (logits at the host).
func (et *engineTrace) traceDone(seq int64, t float64) {
	et.r.Emit(trace.Event{
		Kind: trace.KindInstant, Track: et.sample, Name: et.doneNm,
		Seq: seq, Start: t,
	})
}

// EnableTrace attaches one recorder to every engine of the set: each
// model keeps its own process/tracks, all interleaved on the shared
// fabric timeline. RunSet records only the co-located pass — the
// isolated baselines run untraced so the export shows one schedule.
func (es *EngineSet) EnableTrace(r *trace.Recorder) {
	for _, e := range es.engines {
		e.EnableTrace(r)
	}
}

// TraceEventsPerSample sums the per-sample event bound over the set's
// engines (one co-located round admits one sample of every model).
func (es *EngineSet) TraceEventsPerSample() int {
	n := 0
	for _, e := range es.engines {
		n += e.TraceEventsPerSample()
	}
	return n
}

// traceMeta stamps set-level metadata after a co-located run.
func (es *EngineSet) traceMeta(out *SetResult) {
	for _, e := range es.engines {
		if e.tr == nil {
			continue
		}
		r := e.tr.r
		r.SetMeta("batch", strconv.Itoa(out.Batch))
		r.SetMeta("colocated_models", strconv.Itoa(len(es.engines)))
		r.SetMeta("makespan_ns", strconv.FormatFloat(out.MakespanNs, 'g', -1, 64))
		r.SetMeta("fairness_jain", strconv.FormatFloat(out.FairnessJain, 'g', -1, 64))
		r.SetMeta("interference_wait_ns", strconv.FormatFloat(out.InterferenceWaitNs, 'g', -1, 64))
		return
	}
}
