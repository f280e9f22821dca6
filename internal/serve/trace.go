package serve

import (
	"strconv"
	"time"

	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/trace"
)

// Serving-side trace instrumentation. When Config.Trace carries a
// recorder, the server emits per-request spans and per-worker batch
// slices onto it — wall-clock nanoseconds since server construction as
// the time axis (the same origin the metrics block uses), so a serving
// trace and a /stats window describe the same interval.
//
// Track scheme:
//
//	requests       one async span per request (id = request ID):
//	               span start = admission, end = reply; args carry the
//	               queue wait and the batch that served it
//	worker N       one slice per executed batch (Seq = batch sequence,
//	               A = batch size); lifetime lifecycle events (canary
//	               counters, recalibrate slices, retire instants) for
//	               the replica the worker owns
//	fallback       same, for the fail-open software replica
//	sim pricer     one instant per priced batch joining the serving
//	               timeline to the engine's model: A = the simulated
//	               makespan the design would have needed for the batch
//
// This is a sliding window over live traffic: the ring keeps the
// newest events (Dropped counts overwrites), and GET /trace snapshots
// it without stopping the server. Unlike the engine's simulated-time
// traces, wall-clock spans are NOT deterministic — the deterministic
// joins are the batch sequence numbers, which the engine-side pricer
// events share.

// serveTrace is the per-server emission state.
type serveTrace struct {
	r     *trace.Recorder
	start time.Time

	requests int32   // async request spans
	workers  []int32 // per-worker batch tracks
	fallback int32   // fail-open replica track
	pricer   int32   // sim join track

	reqNm      int32
	batchNm    int32
	fallbackNm int32
	priceNm    int32
	canaryNm   int32
	flaggedNm  int32
	recalNm    int32
	retiredNm  int32
}

// newServeTrace registers the server's tracks. start is the metrics
// epoch, so span timestamps and Snapshot.UptimeSec share an origin.
func newServeTrace(r *trace.Recorder, backend string, workers int, hasFallback, hasPricer bool, start time.Time) *serveTrace {
	t := &serveTrace{r: r, start: start}
	proc := r.AddProcess("serve " + backend)
	t.requests = r.AddTrack(proc, "requests")
	for w := 0; w < workers; w++ {
		t.workers = append(t.workers, r.AddTrack(proc, "worker "+strconv.Itoa(w)))
	}
	if hasFallback {
		t.fallback = r.AddTrack(proc, "fallback")
	}
	if hasPricer {
		t.pricer = r.AddTrack(proc, "sim pricer")
	}
	t.reqNm = r.Intern("request")
	t.batchNm = r.Intern("batch")
	t.fallbackNm = r.Intern("fallback-batch")
	t.priceNm = r.Intern("sim-price")
	t.canaryNm = r.Intern("canary")
	t.flaggedNm = r.Intern("flagged")
	t.recalNm = r.Intern("recalibrate")
	t.retiredNm = r.Intern("retired")
	r.SetMeta("backend", backend)
	r.SetMeta("time_axis", "wall_ns_since_start")
	return t
}

// sinceNs converts a wall-clock instant to the trace's time axis.
func (t *serveTrace) sinceNs(at time.Time) float64 {
	return float64(at.Sub(t.start).Nanoseconds())
}

// workerTrack maps a worker id to its track (-1 = the fallback replica).
func (t *serveTrace) workerTrack(worker int) int32 {
	if worker < 0 {
		return t.fallback
	}
	return t.workers[worker]
}

// request emits one completed request's span: admission → reply, with
// the queue wait and the serving batch as args.
func (t *serveTrace) request(id int64, enq time.Time, latencyNs, queueNs, batchSeq int64) {
	t.r.Emit(trace.Event{
		Kind: trace.KindAsync, Track: t.requests, Name: t.reqNm,
		Seq: id, Start: t.sinceNs(enq), Dur: float64(latencyNs),
		A: float64(queueNs), B: float64(batchSeq),
	})
}

// batch emits one executed batch's service slice on its worker track.
func (t *serveTrace) batch(worker int, seq int64, dispatched time.Time, durNs int64, n int, viaFallback bool) {
	name := t.batchNm
	if viaFallback {
		name = t.fallbackNm
	}
	t.r.Emit(trace.Event{
		Kind: trace.KindSlice, Track: t.workerTrack(worker), Name: name,
		Seq: seq, Start: t.sinceNs(dispatched), Dur: float64(durNs), A: float64(n),
	})
}

// price joins a served batch to the engine's simulated view: A is the
// makespan the traced design would have needed for this batch size.
func (t *serveTrace) price(seq int64, n int, br *sim.BatchResult) {
	if br == nil {
		return
	}
	t.r.Emit(trace.Event{
		Kind: trace.KindInstant, Track: t.pricer, Name: t.priceNm,
		Seq: seq, Start: t.sinceNs(time.Now()), A: br.MakespanNs, B: float64(n),
	})
}

// canary emits one lifetime canary probe as a counter on the replica's
// worker track (value = accuracy, B = device age).
func (t *serveTrace) canary(worker int, p CanaryPoint) {
	name := t.canaryNm
	if p.Flagged {
		name = t.flaggedNm
	}
	t.r.Emit(trace.Event{
		Kind: trace.KindCounter, Track: t.workerTrack(worker), Name: name,
		Seq: p.ServedSamples, Start: t.sinceNs(time.Now()), A: p.Accuracy, B: p.AgeSeconds,
	})
}

// recal emits the drain+recalibration window as a slice (A = the
// post-recalibration canary accuracy).
func (t *serveTrace) recal(worker int, began time.Time, post float64) {
	start := t.sinceNs(began)
	t.r.Emit(trace.Event{
		Kind: trace.KindSlice, Track: t.workerTrack(worker), Name: t.recalNm,
		Start: start, Dur: t.sinceNs(time.Now()) - start, A: post,
	})
}

// retired marks a replica's permanent exit from rotation.
func (t *serveTrace) retired(worker int) {
	t.r.Emit(trace.Event{
		Kind: trace.KindInstant, Track: t.workerTrack(worker), Name: t.retiredNm,
		Start: t.sinceNs(time.Now()),
	})
}
