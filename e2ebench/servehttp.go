package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/serve"
)

// serve-http: MLP-S on the software backend, priced on EinsteinBarrier,
// driven through Server.Handler().ServeHTTP in process with JSON bodies
// (no sockets, so the client never holds more connections than there
// are cores). The timed phase has two parts:
//
//   - an open loop: Poisson arrivals at httpRate (about a quarter of
//     the host's capacity), each request timed from its due time, with a
//     GET /metrics scrape every second beside the inference traffic;
//   - a backlog: httpQueueCap closed-loop clients, so every batch fills
//     and the server runs at capacity.
//
// Latency percentiles come from the open loop, throughput from the
// backlog.
const (
	httpModel       = "MLP-S"
	httpRate        = 800.0 // open-loop arrivals per second
	httpOpenShare   = 0.7   // share of the timed phase spent in the open loop
	httpMaxBatch    = 64
	httpMaxWait     = 500 * time.Microsecond
	httpQueueCap    = 4 * httpMaxBatch
	httpPayloads    = 64
	httpLateLimit   = 100.0 // ms; a generator later than this at p99 invalidates the open loop
	httpScrapeEvery = time.Second
	httpWarmup      = 2 * httpMaxBatch
	// Window lengths: an open-loop window holds ~1000 requests, so its
	// p99 has ten beyond it; both are short enough that the least-stolen
	// half of them (see summarize) tracks bursts of host steal.
	httpOpenWindow = 1250 * time.Millisecond
	httpBackWindow = 500 * time.Millisecond
)

type serveHTTP struct {
	env
	srv    *serve.Server
	h      http.Handler
	bodies [][]byte
	want   []int // Model.Infer class of each payload
	warm   outcome
}

// httpReply is the part of the /infer reply the benchmark reads.
type httpReply struct {
	RequestID int64   `json:"request_id"`
	Class     int     `json:"class"`
	BatchSize int     `json:"batch_size"`
	BatchSeq  int64   `json:"batch_seq"`
	QueueMs   float64 `json:"queue_ms"`
	LatencyMs float64 `json:"latency_ms"`
}

// httpOp is one timed request.
type httpOp struct {
	due, end time.Time
	serve    time.Duration // ServeHTTP alone
	status   int
	ok       bool
	r        httpReply
}

func (w *serveHTTP) setup() error {
	m, err := bnn.NewModel(httpModel, 1)
	if err != nil {
		return err
	}
	size := 1
	for _, d := range m.InputShape {
		size *= d
	}
	for _, x := range serve.SyntheticInputs(size, httpPayloads, w.seed) {
		body, err := json.Marshal(serve.InferRequest{Input: x.Data()})
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.want = append(w.want, m.Infer(x).ArgMax())
	}
	sw, err := serve.NewSoftwareBackend(m, inferPool)
	if err != nil {
		return err
	}
	var backend serve.Backend = sw
	if w.probe != nil {
		backend = &tracedBackend{Backend: sw, p: w.probe}
	}
	eng, err := eval.Pipeline(eval.DefaultConfig(), m, arch.EinsteinBarrier)
	if err != nil {
		return err
	}
	pricer, err := serve.NewPricer(eng)
	if err != nil {
		return err
	}
	w.srv, err = serve.New(serve.Config{
		Backend:  backend,
		MaxBatch: httpMaxBatch,
		MaxWait:  httpMaxWait,
		QueueCap: httpQueueCap,
		Workers:  serverWorkers,
		Pricer:   pricer,
	})
	if err != nil {
		return err
	}
	w.srv.Start()
	w.h = w.srv.Handler()

	// Warm-up: one burst that fills two batches, and one scrape.
	var wg sync.WaitGroup
	ops := make([]httpOp, httpWarmup)
	for i := range ops {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops[i] = w.call(i%httpPayloads, time.Now(), -1)
		}(i)
	}
	wg.Wait()
	for _, op := range ops {
		w.warm.attempted++
		if !op.ok {
			w.warm.failed++
			w.warm.fail("warm-up request: status %d, class %d", op.status, op.r.Class)
		}
	}
	w.warm.attempted++
	if err := w.scrape(); err != nil {
		w.warm.failed++
		w.warm.fail("warm-up scrape: %v", err)
	}
	return nil
}

// call sends one /infer request through the handler and checks the
// reply against the software model.
func (w *serveHTTP) call(payload int, due time.Time, seq int64) httpOp {
	req := httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(w.bodies[payload]))
	rec := httptest.NewRecorder()
	t := time.Now()
	w.h.ServeHTTP(rec, req)
	d := time.Since(t)
	if seq >= 0 {
		w.probe.record(spanHTTP, t, d, 1, seq)
	}
	op := httpOp{due: due, serve: d, status: rec.Code}
	if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &op.r) == nil {
		op.ok = op.r.Class == w.want[payload] && op.r.RequestID > 0
	}
	op.end = time.Now()
	return op
}

// scrape reads GET /metrics, the read path beside the write path.
func (w *serveHTTP) scrape() error {
	rec := httptest.NewRecorder()
	w.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "eb_serve_") {
		return fmt.Errorf("GET /metrics: status %d", rec.Code)
	}
	return nil
}

func (w *serveHTTP) measure(d time.Duration) (*outcome, error) {
	out := &outcome{attempted: w.warm.attempted, failed: w.warm.failed, problems: w.warm.problems}
	dOpen := time.Duration(float64(d) * httpOpenShare)
	dBack := d - dOpen

	// --- open loop ---
	n := int(httpRate * dOpen.Seconds())
	sched := serve.Schedule(w.seed, httpRate, n)
	rng := rand.New(rand.NewSource(w.seed + 1))
	pick := make([]int, n)
	for i := range pick {
		pick[i] = rng.Intn(httpPayloads)
	}
	open := make([]httpOp, n)
	late := make([]float64, n)
	stop := make(chan struct{})
	var scrapes, scrapeFails int64
	var sg sync.WaitGroup
	sg.Add(1)
	go func() {
		defer sg.Done()
		tick := time.NewTicker(httpScrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				scrapes++
				if err := w.scrape(); err != nil {
					scrapeFails++
				}
			}
		}
	}()
	begin := time.Now()
	var wg sync.WaitGroup
	for i, off := range sched {
		due := begin.Add(off)
		if dd := time.Until(due); dd > 0 {
			time.Sleep(dd)
		}
		late[i] = ms(time.Since(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			open[i] = w.call(pick[i], due, int64(i))
		}(i, due)
	}
	wg.Wait()
	openEnd := time.Now()
	close(stop)
	sg.Wait()

	// --- backlog ---
	backStart := time.Now()
	deadline := backStart.Add(dBack)
	perClient := make([][]httpOp, httpQueueCap)
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				op := w.call((c*31+k)%httpPayloads, time.Now(), int64(n+c*1_000_000+k))
				perClient[c] = append(perClient[c], op)
			}
		}(c)
	}
	wg.Wait()
	var back []httpOp
	backEnd := backStart
	for _, ops := range perClient {
		back = append(back, ops...)
		for _, op := range ops {
			if op.end.After(backEnd) {
				backEnd = op.end
			}
		}
	}

	// --- checks and end-to-end numbers ---
	out.attempted += int64(n+len(back)) + scrapes
	out.failed += scrapeFails
	if scrapeFails > 0 {
		out.fail("%d of %d /metrics scrapes failed", scrapeFails, scrapes)
	}
	lateP99 := quantile(late, 0.99)
	openFailed := int64(0)
	openWins, openLen := evenWindows(begin, dOpen, httpOpenWindow)
	for i, op := range open {
		if !op.ok {
			openFailed++
			continue
		}
		k := min(int(sched[i]/openLen), len(openWins)-1)
		openWins[k].lat = append(openWins[k].lat, ms(op.end.Sub(op.due)))
	}
	if lateP99 > httpLateLimit {
		out.fail("load generator fell behind: late p99 %.2f ms > %.0f ms", lateP99, httpLateLimit)
		openFailed = int64(n)
	} else if openFailed > 0 {
		out.fail("%d of %d open-loop requests failed (shed, non-200 or wrong class)", openFailed, n)
	}
	out.failed += openFailed
	backWins, backLen := evenWindows(backStart, dBack, httpBackWindow)
	for k := range backWins {
		backWins[k].rate = true
	}
	completed := 0
	for _, op := range back {
		if !op.ok {
			out.failed++
			continue
		}
		completed++
		if k := int(op.end.Sub(backStart) / backLen); k < len(backWins) {
			backWins[k].ops++
		}
	}
	if completed < len(back) {
		out.fail("%d of %d backlog requests failed", len(back)-completed, len(back))
	}
	out.windows = append(openWins, backWins...)

	if w.probe != nil {
		out.layers = w.layers(open, back, late, begin, openEnd, backStart, backEnd)
	}
	return out, nil
}

// evenWindows cuts [start, start+d) into equal windows of at least size
// (one window when d is shorter) and returns them with their length.
func evenWindows(start time.Time, d, size time.Duration) ([]window, time.Duration) {
	n := max(1, int(d/size))
	length := d / time.Duration(n)
	ws := make([]window, n)
	for k := range ws {
		ws[k].from = start.Add(time.Duration(k) * length)
		ws[k].to = ws[k].from.Add(length)
	}
	return ws, length
}

// layers splits the serving path into its hops. Batch sequence numbers
// index the replica's RunBatch calls: one worker, no retries, so the
// k-th call is batch k.
func (w *serveHTTP) layers(open, back []httpOp, late []float64, begin, openEnd, backStart, backEnd time.Time) map[string]float64 {
	runs := w.probe.get(spanRunBatch)
	fwd := make(map[int64]time.Duration, len(runs))
	for _, s := range runs {
		fwd[s.seq] = s.dur
	}
	var self, queue, reply, fwdReq, e2e []float64
	openBatch := map[int64]int{}
	for _, op := range open {
		if !op.ok {
			continue
		}
		f := ms(fwd[op.r.BatchSeq])
		self = append(self, 1e3*(ms(op.serve)-op.r.LatencyMs))
		queue = append(queue, op.r.QueueMs)
		fwdReq = append(fwdReq, f)
		reply = append(reply, op.r.LatencyMs-op.r.QueueMs-f)
		e2e = append(e2e, ms(op.end.Sub(op.due)))
		openBatch[op.r.BatchSeq] = op.r.BatchSize
	}
	backBatch := map[int64]int{}
	for _, op := range back {
		if op.ok {
			backBatch[op.r.BatchSeq] = op.r.BatchSize
		}
	}
	backRuns := between(runs, backStart, backEnd)
	var busy time.Duration
	samples := 0
	for _, s := range backRuns {
		busy += s.dur
		samples += s.n
	}
	l := map[string]float64{
		"serve.http_self_us":           median(self),
		"serve.queue_ms_p50":           quantile(queue, 0.5),
		"serve.queue_ms_p90":           quantile(queue, 0.9),
		"serve.batch_mean_open":        meanSize(openBatch),
		"serve.batch_mean_backlog":     meanSize(backBatch),
		"bnn.forward_ms_per_batch_p50": median(durMs(between(runs, begin, openEnd))),
		"serve.reply_ms_p50":           median(reply),
		"serve.hop_residual_ms":        median(e2e) - (median(self)/1e3 + median(queue) + median(fwdReq) + median(reply)),
		"loadgen.late_ms_p99":          quantile(late, 0.99),
	}
	if samples > 0 {
		l["bnn.forward_us_per_sample"] = float64(busy) / 1e3 / float64(samples)
		l["bnn.busy_frac"] = float64(busy) / float64(backEnd.Sub(backStart))
	}
	if sim := w.srv.Stats().Sim; sim != nil {
		l["sim.pricer_sim_inf_per_s"] = sim.PerSec
	}
	return l
}

// meanSize is the mean batch size over distinct batches.
func meanSize(sizes map[int64]int) float64 {
	if len(sizes) == 0 {
		return 0
	}
	t := 0
	for _, n := range sizes {
		t += n
	}
	return float64(t) / float64(len(sizes))
}

func (w *serveHTTP) finish(*outcome) error {
	if w.srv != nil {
		w.srv.Stop()
	}
	return nil
}
