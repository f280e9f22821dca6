package eval

import (
	"fmt"
	"strconv"

	"einsteinbarrier/internal/trace"
)

// LifetimeTraceRecorder converts a lifetime run's canary series into
// the shared trace representation: one process per run (time axis =
// served samples, noted in the process name), one track per hardware
// replica, one counter event per canary probe whose name records the
// lifecycle state (canary / flagged / post-recal), value the canary
// accuracy, and payload B the replica's wear age in device-seconds.
// This is what `ebserve -lifetime` CSV output and the trace JSON both
// serialize — one trace format everywhere.
func LifetimeTraceRecorder(r LifetimeReport) *trace.Recorder {
	rec := trace.New(len(r.Trace) + 1)
	proc := rec.AddProcess(lifetimeProcName(r))
	canary := rec.Intern("canary")
	flagged := rec.Intern("flagged")
	postRecal := rec.Intern("post-recal")
	tracks := map[int]int32{}
	for _, p := range r.Trace {
		tr, ok := tracks[p.Replica]
		if !ok {
			tr = rec.AddTrack(proc, "replica "+strconv.Itoa(p.Replica))
			tracks[p.Replica] = tr
		}
		name := canary
		switch {
		case p.PostRecal:
			name = postRecal
		case p.Flagged:
			name = flagged
		}
		rec.Emit(trace.Event{
			Kind: trace.KindCounter, Track: tr, Name: name,
			Seq: p.ServedSamples, Start: float64(p.ServedSamples),
			A: p.Accuracy, B: p.AgeSeconds,
		})
	}
	rec.SetMeta("model", r.Model)
	if r.Design != "" {
		rec.SetMeta("design", r.Design)
	}
	rec.SetMeta("time_axis", "served_samples")
	rec.SetMeta("horizon_seconds", strconv.FormatFloat(r.HorizonSeconds, 'g', -1, 64))
	rec.SetMeta("recalibrations", strconv.FormatInt(r.Recalibrations, 10))
	rec.SetMeta("fallback_served", strconv.FormatInt(r.FallbackServed, 10))
	return rec
}

func lifetimeProcName(r LifetimeReport) string {
	if r.Design != "" {
		return fmt.Sprintf("lifetime %s on %s (t = served samples)", r.Model, r.Design)
	}
	return fmt.Sprintf("lifetime %s (t = served samples)", r.Model)
}
