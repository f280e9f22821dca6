// Package serve is the online serving subsystem: it turns a live
// request stream into dynamically sized inference batches and reports
// tail latency against the pipeline ceiling the offline sweeps
// (eval.ThroughputAt) make measurable.
//
// The pieces:
//
//   - a deadline-aware dynamic batcher: requests are collected until
//     either MaxBatch is reached or MaxWait has elapsed since the first
//     request of the batch, whichever comes first;
//   - admission control: a bounded queue sheds load when full
//     (ErrOverloaded) instead of letting latency grow without bound,
//     with shed-count accounting in the metrics block;
//   - pluggable backends (Backend): SoftwareBackend runs the exact
//     bitops fast path through the internal/infer pool; HardwareBackend
//     runs the binary layers on simulated analog crossbars
//     (robust.HardwareModel);
//   - optional per-batch accelerator pricing (Pricer): every served
//     batch is priced by sim.Engine.RunBatch, so a live stream reports
//     simulated latency/energy/throughput for a selected design;
//   - a snapshot-able metrics block (Snapshot): throughput, p50/p95/p99
//     /max latency, mean batch size, queue depth, shed rate.
//
// Batch boundaries are a scheduling decision, not a constant: under
// light load the MaxWait deadline flushes small batches (latency-bound
// regime), under saturation every batch fills to MaxBatch and the
// simulated throughput approaches the pipeline's analytic ceiling
// (throughput-bound regime). The loadgen (loadgen.go) sweeps arrival
// rates across both regimes.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"einsteinbarrier/internal/tensor"
	"einsteinbarrier/internal/trace"
)

// Admission errors. ErrOverloaded is retryable (the queue was full at
// arrival time); ErrClosed is not.
var (
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	ErrClosed     = errors.New("serve: server is stopped")
	// ErrNoHealthyReplica fails batches when every hardware replica has
	// been retired and no software fallback is configured (lifetime
	// mode) — fail loudly rather than queue forever.
	ErrNoHealthyReplica = errors.New("serve: no healthy replica")
)

// Config parameterizes a Server.
type Config struct {
	// Backend executes the batches. Required.
	Backend Backend
	// MaxBatch is the dispatch size cap (default 64).
	MaxBatch int
	// MaxWait is how long the batcher holds a non-full batch, measured
	// from the enqueue of its first request (default 500µs). 0 means
	// dispatch greedily: a batch is whatever is queued at drain time.
	MaxWait time.Duration
	// QueueCap bounds the admission queue (default 4×MaxBatch). A full
	// queue sheds new requests with ErrOverloaded.
	QueueCap int
	// Workers is the number of batch executors, each owning an
	// independent backend replica (default 1). More than one worker
	// lets batches overlap, at the cost of out-of-order completion.
	// In lifetime mode batches are dealt to the replicas round-robin,
	// so each replica's batches (and with them its ageing, canary
	// probes and recalibrations) follow from the request stream alone.
	Workers int
	// Pricer, when non-nil, prices every served batch on the simulated
	// accelerator (see NewPricer).
	Pricer *Pricer
	// Lifetime, when non-nil, turns on device-lifetime mode: replicas
	// age with served work, canary probes detect degradation, and a
	// closed loop drains + recalibrates flagged replicas. Requires every
	// replica to implement LifetimeReplica (i.e. a hardware backend).
	Lifetime *LifetimeConfig
	// Trace, when non-nil, records per-request spans, per-worker batch
	// slices, drain/fallback transitions and sim-pricer joins
	// into the shared trace ring (internal/trace) — snapshot it live
	// via GET /trace. The ring keeps the newest events under overflow.
	Trace *trace.Recorder
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Lifetime != nil {
		c.Lifetime = c.Lifetime.withDefaults()
	}
	return c
}

// Result is one request's reply.
type Result struct {
	// RequestID is the admission-assigned identity of the request —
	// echoed as X-Request-ID over HTTP and used as the span id in the
	// serving trace.
	RequestID int64
	// Class is the argmax prediction; Logits the full output vector.
	Class  int
	Logits []float64
	// BatchSize is the size of the dynamic batch that served the
	// request; BatchSeq its dispatch sequence number (0-based).
	BatchSize int
	BatchSeq  int64
	// QueueNs is enqueue→dispatch, LatencyNs enqueue→reply.
	QueueNs   int64
	LatencyNs int64
}

// Reply pairs a Result with its error, for the async submit path.
type Reply struct {
	Result Result
	Err    error
}

// request is one queued inference.
type request struct {
	id    int64
	x     *tensor.Float
	enq   time.Time
	reply chan Reply
}

// batchJob is one dispatched batch: the batcher stamps the sequence
// number, so batch boundaries are observable (and test-pinned) even
// when several workers complete out of order.
type batchJob struct {
	seq  int64
	reqs []*request
}

// Server is the online serving front: Submit (or the HTTP handler in
// http.go) feeds the admission queue, the batcher forms dynamic
// batches, and worker goroutines execute them on backend replicas.
type Server struct {
	cfg       Config
	inputSize int
	queue     chan *request
	batches   chan batchJob   // shared by the workers; the fallback's only, in lifetime mode
	dealt     []chan batchJob // per-replica batches, in lifetime mode
	replicas  []Replica
	fallback  Replica   // software fail-open replica (lifetime mode)
	life      *lifetime // nil unless Config.Lifetime is set
	metrics   *metrics
	tr        *serveTrace // nil unless Config.Trace is set
	reqSeq    atomic.Int64
	batchSeq  int64 // owned by the batcher goroutine
	dealing   []int // replicas still in the lifetime deal; owned by the batcher
	dealPos   int   // index into dealing of the next replica to serve

	mu      sync.Mutex // guards closed and the queue close
	closed  bool
	started bool
	wg      sync.WaitGroup
}

// New builds a server (replicas are created eagerly so misconfigured
// backends fail fast). Call Start to begin serving.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: config needs a backend")
	}
	cfg = cfg.withDefaults()
	size := 1
	for _, d := range cfg.Backend.InputShape() {
		size *= d
	}
	s := &Server{
		cfg:       cfg,
		inputSize: size,
		queue:     make(chan *request, cfg.QueueCap),
		batches:   make(chan batchJob),
		metrics:   newMetrics(),
	}
	for w := 0; w < cfg.Workers; w++ {
		r, err := cfg.Backend.NewReplica()
		if err != nil {
			return nil, fmt.Errorf("serve: replica %d: %w", w, err)
		}
		s.replicas = append(s.replicas, r)
	}
	if cfg.Lifetime != nil {
		if err := cfg.Lifetime.validate(); err != nil {
			return nil, err
		}
		for w, r := range s.replicas {
			if _, ok := r.(LifetimeReplica); !ok {
				return nil, fmt.Errorf("serve: lifetime mode needs aging replicas; %q replica %d cannot age",
					cfg.Backend.Name(), w)
			}
		}
		if m := cfg.Lifetime.Fallback; m != nil {
			fb, err := NewSoftwareBackend(m, 0)
			if err != nil {
				return nil, fmt.Errorf("serve: fallback: %w", err)
			}
			if s.fallback, err = fb.NewReplica(); err != nil {
				return nil, fmt.Errorf("serve: fallback replica: %w", err)
			}
		}
		s.life = newLifetime(cfg.Lifetime, cfg.Workers)
		s.dealt = make([]chan batchJob, cfg.Workers)
		for w := range s.dealt {
			s.dealt[w] = make(chan batchJob)
			s.dealing = append(s.dealing, w)
		}
	}
	if cfg.Trace != nil {
		s.tr = newServeTrace(cfg.Trace, cfg.Backend.Name(), cfg.Workers,
			s.fallback != nil, cfg.Pricer != nil, s.metrics.start)
		if s.life != nil {
			s.life.tr = s.tr
		}
	}
	return s, nil
}

// Start launches the batcher and the batch workers. Requests submitted
// before Start queue up (subject to admission control) and are served
// in enqueue order once the batcher runs — which is what makes batch
// boundaries deterministic under test.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	s.wg.Add(1 + len(s.replicas))
	go s.batchLoop()
	for w, r := range s.replicas {
		go s.workLoop(w, r)
	}
	if s.fallback != nil {
		s.wg.Add(1)
		go s.fallbackLoop(s.fallback)
	}
}

// Stop drains the queue (every accepted request is answered) and waits
// for the pipeline to finish. Further submissions fail with ErrClosed.
func (s *Server) Stop() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	started := s.started
	close(s.queue)
	s.mu.Unlock()
	if !started {
		// No batcher is running: answer queued requests directly.
		for r := range s.queue {
			r.reply <- Reply{Err: ErrClosed}
		}
		return
	}
	s.wg.Wait()
}

// SubmitAsync validates and enqueues one request and returns the
// channel its Reply will arrive on (buffered — the server never blocks
// on a slow consumer). This is the streaming submit path; Submit is the
// blocking wrapper.
//
// Inputs must either match the backend's input shape exactly or be a
// flat vector of the right element count (the HTTP wire format), which
// is reshaped here — so batches reaching a replica are always
// well-shaped and one caller's malformed tensor can never poison the
// requests it would have been batched with.
func (s *Server) SubmitAsync(x *tensor.Float) (<-chan Reply, error) {
	ch, _, err := s.submitTraced(x)
	return ch, err
}

// submitTraced is SubmitAsync plus the request ID assigned at
// admission — the identity the HTTP layer echoes as X-Request-ID and
// the serving trace uses as the span id. The ID is valid (non-zero)
// exactly when err is nil.
func (s *Server) submitTraced(x *tensor.Float) (<-chan Reply, int64, error) {
	want := s.cfg.Backend.InputShape()
	ok := x != nil && x.Size() == s.inputSize
	if ok && x.Dims() != 1 {
		ok = x.Dims() == len(want)
		for d := 0; ok && d < len(want); d++ {
			ok = x.Dim(d) == want[d]
		}
	}
	if !ok {
		s.metrics.rejected.Add(1)
		shape := []int(nil)
		if x != nil {
			shape = x.Shape()
		}
		return nil, 0, fmt.Errorf("serve: input shape %v, backend %q wants %v (or a flat vector of %d)",
			shape, s.cfg.Backend.Name(), want, s.inputSize)
	}
	if x.Dims() != len(want) {
		x = x.Reshape(want...)
	}
	r := &request{id: s.reqSeq.Add(1), x: x, enq: time.Now(), reply: make(chan Reply, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	select {
	case s.queue <- r:
		s.metrics.accepted.Add(1)
		s.mu.Unlock()
		return r.reply, r.id, nil
	default:
		s.metrics.shed.Add(1)
		s.mu.Unlock()
		return nil, 0, ErrOverloaded
	}
}

// submit enqueues one request and blocks until its reply.
func (s *Server) submit(x *tensor.Float) (Result, error) {
	ch, err := s.SubmitAsync(x)
	if err != nil {
		return Result{}, err
	}
	rep := <-ch
	return rep.Result, rep.Err
}

// Stats snapshots the metrics block.
func (s *Server) Stats() Snapshot {
	snap := s.metrics.snapshot(s.cfg.Backend.Name(), len(s.queue))
	if s.cfg.Pricer != nil {
		sim := s.cfg.Pricer.snapshot()
		snap.Sim = &sim
	}
	if s.life != nil {
		snap.Lifetime = s.life.snapshot()
		snap.FallbackServed = snap.Lifetime.FallbackServed
	}
	return snap
}

// batchLoop is the deadline-aware dynamic batcher: collect up to
// MaxBatch requests or until MaxWait past the first request's enqueue,
// whichever comes first, then hand the batch to a worker.
func (s *Server) batchLoop() {
	defer s.wg.Done()
	defer close(s.batches)
	for _, c := range s.dealt {
		defer close(c)
	}
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		first, ok := <-s.queue
		if !ok {
			return
		}
		batch := make([]*request, 1, s.cfg.MaxBatch)
		batch[0] = first
		deadline := first.enq.Add(s.cfg.MaxWait)
		closed := false
	collect:
		for len(batch) < s.cfg.MaxBatch {
			// Fast path: drain whatever is already queued, in order.
			select {
			case r, rok := <-s.queue:
				if !rok {
					closed = true
					break collect
				}
				batch = append(batch, r)
				continue
			default:
			}
			wait := time.Until(deadline)
			if wait <= 0 {
				break collect
			}
			timer.Reset(wait)
			select {
			case r, rok := <-s.queue:
				if !timer.Stop() {
					<-timer.C
				}
				if !rok {
					closed = true
					break collect
				}
				batch = append(batch, r)
			case <-timer.C:
				break collect
			}
		}
		s.dispatch(batch)
		if closed {
			// Flush the remainder of the drained queue in full batches.
			// (Fresh slices — the dispatched batch is owned by a worker.)
			batch = make([]*request, 0, s.cfg.MaxBatch)
			for r := range s.queue {
				batch = append(batch, r)
				if len(batch) == s.cfg.MaxBatch {
					s.dispatch(batch)
					batch = make([]*request, 0, s.cfg.MaxBatch)
				}
			}
			if len(batch) > 0 {
				s.dispatch(batch)
			}
			return
		}
	}
}

// dispatch stamps the batch sequence number and hands the batch off.
func (s *Server) dispatch(batch []*request) {
	job := batchJob{seq: s.batchSeq, reqs: batch}
	s.batchSeq++
	if s.life != nil {
		s.deal(job)
		return
	}
	s.batches <- job
}

// deal hands a lifetime-mode batch to the next replica in round-robin
// order, waiting for it to finish its previous batch and lifecycle
// step, so replica r serves a fixed subsequence of the batches. A
// replica that retires instead of taking the batch leaves the deal
// for good; retirement, too, follows from the replica's own batches.
// The fail-open fallback takes the batch instead whenever it is
// waiting (no replica in rotation), which wall-clock timing decides.
// When the last replica retires with no fallback, the dead channel
// fires and batches fail with ErrNoHealthyReplica instead of blocking
// the batcher forever.
func (s *Server) deal(job batchJob) {
	l := s.life
	for {
		var (
			next chan batchJob // nil, never ready, once every replica retired
			gone <-chan struct{}
		)
		if len(s.dealing) > 0 {
			r := s.dealing[s.dealPos]
			next, gone = s.dealt[r], l.gone[r]
		}
		select {
		case next <- job:
			s.dealPos = (s.dealPos + 1) % len(s.dealing)
			return
		case <-gone:
			s.dealing = append(s.dealing[:s.dealPos], s.dealing[s.dealPos+1:]...)
			if s.dealPos == len(s.dealing) {
				s.dealPos = 0
			}
		case s.batches <- job:
			return
		case <-l.dead:
			s.failBatch(job.reqs, ErrNoHealthyReplica)
			return
		}
	}
}

// failBatch answers every request of an undeliverable batch.
func (s *Server) failBatch(batch []*request, err error) {
	s.metrics.batchServed(len(batch), false)
	for _, r := range batch {
		r.reply <- Reply{Err: err}
	}
}

// runReplica executes one batch, converting a replica panic into an
// error: a buggy backend fails its batch, not the whole server.
func runReplica(rep Replica, xs []*tensor.Float, preds []Prediction) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: backend panic: %v", r)
		}
	}()
	return rep.RunBatch(xs, preds)
}

// workLoop executes batches on one backend replica. In lifetime mode
// the replica ages with its served work and runs the canary /
// recalibration lifecycle between batches; a retired replica's worker
// leaves the rotation for good.
func (s *Server) workLoop(id int, rep Replica) {
	defer s.wg.Done()
	if s.life != nil {
		defer s.life.workerExit(id)
	}
	var (
		xs    []*tensor.Float
		preds []Prediction
	)
	jobs := s.batches
	if s.life != nil {
		jobs = s.dealt[id]
	}
	for job := range jobs {
		s.serveBatch(id, rep, job, &xs, &preds, false)
		if s.life != nil && s.life.afterBatch(id, rep, len(job.reqs)) {
			return // retired
		}
	}
}

// serveBatch executes one dispatched batch on a replica, then answers
// every request; a replica error fails the whole batch. Scratch slices
// live with the calling loop. worker is the executing worker's id (-1
// for the fallback replica) — the trace attributes the batch to its
// track.
func (s *Server) serveBatch(worker int, rep Replica, job batchJob, xsp *[]*tensor.Float, predsp *[]Prediction, viaFallback bool) {
	batch := job.reqs
	dispatched := time.Now()
	xs := (*xsp)[:0]
	for _, r := range batch {
		xs = append(xs, r.x)
	}
	*xsp = xs
	preds := *predsp
	if cap(preds) < len(batch) {
		preds = make([]Prediction, len(batch))
	}
	preds = preds[:len(batch)]
	*predsp = preds
	err := runReplica(rep, xs, preds)
	if err == nil && s.cfg.Pricer != nil {
		br := s.cfg.Pricer.price(len(batch))
		if s.tr != nil {
			s.tr.price(job.seq, len(batch), br)
		}
	}
	drain := s.life != nil && (viaFallback || s.life.inDrain())
	done := time.Now()
	s.metrics.batchServed(len(batch), err == nil)
	if s.tr != nil {
		s.tr.batch(worker, job.seq, dispatched, done.Sub(dispatched).Nanoseconds(), len(batch), viaFallback)
	}
	for i, r := range batch {
		lat := done.Sub(r.enq).Nanoseconds()
		if err != nil {
			r.reply <- Reply{Err: err}
			continue
		}
		s.metrics.observeLatency(lat)
		if drain {
			s.metrics.observeDrainLatency(lat)
		}
		queueNs := dispatched.Sub(r.enq).Nanoseconds()
		if s.tr != nil {
			s.tr.request(r.id, r.enq, lat, queueNs, job.seq)
		}
		r.reply <- Reply{Result: Result{
			RequestID: r.id,
			Class:     preds[i].Class,
			Logits:    preds[i].Logits,
			BatchSize: len(batch),
			BatchSeq:  job.seq,
			QueueNs:   queueNs,
			LatencyNs: lat,
		}}
	}
}
