package serve

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Latency histogram: log-linear buckets, 32 sub-buckets per power of
// two (quantile upper-bound error ≤ ~3%), bounded memory no matter how
// long the server runs. Values below 64ns land in exact unit buckets.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits                   // 32
	histExact   = 2 * histSub                        // exact buckets for v < 64
	histSize    = (63-histSubBits)*histSub + histSub // e ≤ 63 ⇒ idx < histSize
)

// bucketIndex maps a non-negative latency (ns) to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histExact {
		return int(u)
	}
	e := bits.Len64(u) // ≥ histSubBits+2
	sub := (u >> (e - 1 - histSubBits)) & (histSub - 1)
	return (e-histSubBits)*histSub + int(sub)
}

// bucketUpper is the inclusive upper bound of a bucket — the value
// reported for quantiles, so SLO numbers are conservative.
func bucketUpper(idx int) int64 {
	if idx < histExact {
		return int64(idx)
	}
	e := idx/histSub + histSubBits
	sub := uint64(idx % histSub)
	lo := uint64(1)<<(e-1) | sub<<(e-1-histSubBits)
	return int64(lo + 1<<(e-1-histSubBits) - 1)
}

// metrics is the server's accounting block. Admission counters are
// atomics (hit on every Submit); the histogram and batch counters are
// guarded by a mutex taken once per batch / reply.
type metrics struct {
	start time.Time

	accepted atomic.Int64
	shed     atomic.Int64
	rejected atomic.Int64
	timedOut atomic.Int64

	mu        sync.Mutex
	completed int64
	failed    int64
	batches   int64
	sumBatch  int64
	maxNs     int64
	total     int64
	hist      [histSize]int64
	// Drain-window latencies (lifetime mode): requests served while a
	// replica was out of rotation, or queued behind a drain.
	drainMaxNs int64
	drainTotal int64
	drainHist  [histSize]int64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// batchServed records one executed batch.
func (m *metrics) batchServed(n int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.sumBatch += int64(n)
	if ok {
		m.completed += int64(n)
	} else {
		m.failed += int64(n)
	}
}

// observeLatency records one request's enqueue→reply latency.
func (m *metrics) observeLatency(ns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist[bucketIndex(ns)]++
	m.total++
	if ns > m.maxNs {
		m.maxNs = ns
	}
}

// observeDrainLatency additionally attributes a latency to the drain
// window (the request was served while a replica was being drained or
// recalibrated).
func (m *metrics) observeDrainLatency(ns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.drainHist[bucketIndex(ns)]++
	m.drainTotal++
	if ns > m.drainMaxNs {
		m.drainMaxNs = ns
	}
}

// histQuantileNs returns the q-quantile upper bound of a histogram.
// Callers hold mu.
func histQuantileNs(hist *[histSize]int64, total, maxNs int64, q float64) int64 {
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, c := range hist {
		cum += c
		if cum >= rank {
			// The bucket upper bound can overshoot the true maximum by
			// the bucket width; the exact max is tracked separately.
			return min(bucketUpper(i), maxNs)
		}
	}
	return maxNs
}

// quantileNs returns the q-quantile latency upper bound. Callers hold mu.
func (m *metrics) quantileNs(q float64) int64 {
	return histQuantileNs(&m.hist, m.total, m.maxNs, q)
}

// LatencyMs is the latency SLO block of a Snapshot, in milliseconds.
type LatencyMs struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// Snapshot is a point-in-time view of the serving metrics.
type Snapshot struct {
	// Backend names the execution engine.
	Backend string `json:"backend"`
	// UptimeSec counts from the server's construction.
	UptimeSec float64 `json:"uptime_sec"`
	// Admission accounting: Accepted entered the queue; Shed were
	// refused by a full queue (ErrOverloaded); Rejected failed shape
	// validation.
	Accepted int64 `json:"accepted"`
	Shed     int64 `json:"shed"`
	Rejected int64 `json:"rejected"`
	// TimedOut counts HTTP requests whose context deadline expired
	// before the reply (504s); the request itself still completed
	// server-side. FallbackServed counts samples answered by the
	// fail-open software path (lifetime mode; also inside the Lifetime
	// block — surfaced here so the cumulative counters read uniformly
	// on /metrics).
	TimedOut       int64 `json:"timed_out"`
	FallbackServed int64 `json:"fallback_served"`
	// ShedRate is Shed / (Accepted + Shed).
	ShedRate float64 `json:"shed_rate"`
	// Completed/Failed counts replies; Batches the dispatched batches;
	// MeanBatch the mean dynamic batch size — the scheduling decision
	// the arrival rate made.
	Completed int64   `json:"completed"`
	Failed    int64   `json:"failed"`
	Batches   int64   `json:"batches"`
	MeanBatch float64 `json:"mean_batch"`
	// QueueDepth is the instantaneous admission-queue length.
	QueueDepth int `json:"queue_depth"`
	// ThroughputPerSec is Completed over uptime (wall clock).
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	// Latency quantiles (enqueue→reply, histogram upper bounds).
	Latency LatencyMs `json:"latency_ms"`
	// DrainLatency quantiles over requests served inside a drain window
	// (lifetime mode; nil when no drain has been observed) — the SLO
	// view of recalibration pressure.
	DrainLatency *LatencyMs `json:"drain_latency_ms,omitempty"`
	// DrainServed counts the requests attributed to drain windows.
	DrainServed int64 `json:"drain_served,omitempty"`
	// Sim is the simulated-accelerator view when a Pricer is attached.
	Sim *SimSnapshot `json:"sim,omitempty"`
	// Lifetime is the device-lifetime block when lifetime mode is on.
	Lifetime *LifetimeSnapshot `json:"lifetime,omitempty"`
}

// snapshot assembles a Snapshot.
func (m *metrics) snapshot(backend string, queueDepth int) Snapshot {
	accepted, shed := m.accepted.Load(), m.shed.Load()
	s := Snapshot{
		Backend:    backend,
		Accepted:   accepted,
		Shed:       shed,
		Rejected:   m.rejected.Load(),
		TimedOut:   m.timedOut.Load(),
		QueueDepth: queueDepth,
	}
	if accepted+shed > 0 {
		s.ShedRate = float64(shed) / float64(accepted+shed)
	}
	if !m.start.IsZero() {
		s.UptimeSec = time.Since(m.start).Seconds()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.Completed, s.Failed, s.Batches = m.completed, m.failed, m.batches
	if m.batches > 0 {
		s.MeanBatch = float64(m.sumBatch) / float64(m.batches)
	}
	if s.UptimeSec > 0 {
		s.ThroughputPerSec = float64(m.completed) / s.UptimeSec
	}
	const msPerNs = 1e-6
	s.Latency = LatencyMs{
		P50: float64(m.quantileNs(0.50)) * msPerNs,
		P95: float64(m.quantileNs(0.95)) * msPerNs,
		P99: float64(m.quantileNs(0.99)) * msPerNs,
		Max: float64(m.maxNs) * msPerNs,
	}
	if m.drainTotal > 0 {
		s.DrainServed = m.drainTotal
		s.DrainLatency = &LatencyMs{
			P50: float64(histQuantileNs(&m.drainHist, m.drainTotal, m.drainMaxNs, 0.50)) * msPerNs,
			P95: float64(histQuantileNs(&m.drainHist, m.drainTotal, m.drainMaxNs, 0.95)) * msPerNs,
			P99: float64(histQuantileNs(&m.drainHist, m.drainTotal, m.drainMaxNs, 0.99)) * msPerNs,
			Max: float64(m.drainMaxNs) * msPerNs,
		}
	}
	return s
}
