// Command ebserve is the online serving front end: it wraps a zoo
// network in the dynamic-batching server (internal/serve) and either
// exposes it over HTTP or drives it with the embedded load generator.
//
//	ebserve -network MLP-S -addr :8080            # HTTP: /infer /stats /metrics /healthz
//	ebserve -network MLP-S -trace -addr :8080     # + per-request spans on GET /trace
//	ebserve -lifetime -trace-out spans.json       # span timeline of a lifetime run
//	ebserve -network CNN-S -design eb -loadgen -rate 2000,8000,32000 -requests 2000
//	ebserve -loadgen -rate 4000 -csv              # latency–throughput curve as CSV
//	ebserve -backend hardware -loadgen -rate 50   # hardware-in-the-loop serving
//	ebserve -models MLP-S,CNN-S -placer mesh      # multi-model router, one fabric
//	ebserve -lifetime -requests 200               # drift → canary → recalibrate loop
//
// With -lifetime, hardware replicas age as they serve (conductance
// drift plus optional wear-driven faults), a canary probe stream
// watches each replica's accuracy, and the closed loop drains and
// re-programs flagged replicas — reporting availability, the
// accuracy-over-time trace, recalibration energy, and the drain-window
// latency SLO. -drift-horizon and -lifetimes size the simulated device
// time; -diurnal-base/-diurnal-peak modulate arrivals day/night.
//
// With -models, several networks are co-located on ONE simulated
// fabric (compiler.CompileSet carves disjoint tile regions) behind the
// multi-model router: POST /infer?model=NAME routes to that model's
// dynamic batcher, and GET /stats reports per-model serving metrics
// plus the shared-fabric co-location snapshot (isolated vs co-located
// throughput, Jain fairness, interference stall).
//
// Designs are resolved by name through the arch registry; every served
// batch is priced on the selected design's simulated pipeline, so the
// loadgen curve reports both wall-clock SLO numbers and the simulated
// accelerator throughput against its analytic ceiling
// (eval.ThroughputAt's steady-state bound).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ebserve:", err)
		os.Exit(1)
	}
}

// options is the parsed CLI configuration.
type options struct {
	network  string
	models   string
	placer   string
	design   string
	backend  string
	maxBatch int
	maxWait  time.Duration
	queueCap int
	workers  int
	inferW   int
	seed     int64
	noPrice  bool

	searchSteps int
	searchSeed  int64
	searchBatch int

	addr string

	loadgen    bool
	rates      string
	maxBatches string
	requests   int
	clients    int
	mode       report.Mode

	trace    bool
	traceOut string
	rec      *trace.Recorder // shared span ring when -trace is on

	lifetime      bool
	lifetimes     float64
	driftHorizon  float64
	driftNu       float64
	canaryPeriod  int
	canarySize    int
	floor         float64
	flagAfter     int
	fallback      bool
	faultRate     float64
	diurnalBase   float64
	diurnalPeak   float64
	diurnalPeriod time.Duration
}

// run is the testable CLI body: parses args, builds the server, and
// either serves HTTP (addr mode) or runs the load generator against it.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ebserve", flag.ContinueOnError)
	fs.SetOutput(out)
	var o options
	fs.StringVar(&o.network, "network", "MLP-S", "zoo network: "+strings.Join(bnn.ZooNames, ", "))
	fs.StringVar(&o.models, "models", "", "comma-separated zoo networks to co-locate behind the multi-model router (serve mode; overrides -network)")
	fs.StringVar(&o.placer, "placer", "greedy", "fabric placement strategy for co-location: "+strings.Join(compiler.PlacerNames, ", "))
	fs.StringVar(&o.design, "design", "EinsteinBarrier", "accelerator design for per-batch sim pricing (registry name/alias)")
	fs.StringVar(&o.backend, "backend", "software", "execution backend: software (bitops fast path) or hardware (simulated analog crossbars)")
	fs.IntVar(&o.maxBatch, "max-batch", 64, "dynamic batcher size cap")
	fs.DurationVar(&o.maxWait, "max-wait", 500*time.Microsecond, "dynamic batcher deadline (0 = greedy dispatch)")
	fs.IntVar(&o.queueCap, "queue", 0, "admission queue capacity (0 = 4×max-batch)")
	fs.IntVar(&o.workers, "workers", 1, "concurrent batch executors (backend replicas)")
	fs.IntVar(&o.inferW, "infer-workers", 0, "software backend: per-replica inference pool size (0 = one per CPU)")
	fs.Int64Var(&o.seed, "seed", 1, "zoo weight-synthesis seed")
	fs.BoolVar(&o.noPrice, "no-pricing", false, "disable per-batch accelerator pricing")
	var search eval.SearchSpec
	eval.SearchFlags(fs, &search, "-max-batch")
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address (serve mode)")
	fs.BoolVar(&o.loadgen, "loadgen", false, "run the embedded load generator instead of serving HTTP")
	fs.StringVar(&o.rates, "rate", "1000,4000,16000", "comma-separated open-loop arrival rates (req/s); 0 entries select the closed loop")
	fs.StringVar(&o.maxBatches, "sweep-maxbatch", "", "comma-separated dynamic-batch caps: closed-loop throughput sweep over MaxBatch (loadgen mode; overrides -rate)")
	fs.IntVar(&o.requests, "requests", 1000, "loadgen arrivals per rate point")
	fs.IntVar(&o.clients, "clients", 4, "closed-loop client count (rate 0)")
	csvOut := fs.Bool("csv", false, "emit the loadgen curve as CSV")
	jsonOut := fs.Bool("json", false, "emit the loadgen curve as JSON")
	fs.BoolVar(&o.trace, "trace", false, "record per-request serving spans into a sliding ring (GET /trace in serve mode)")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the recorded spans as Chrome-trace JSON to this file after a loadgen/lifetime run (implies -trace)")
	fs.BoolVar(&o.lifetime, "lifetime", false, "run the device-lifetime scenario: ageing hardware replicas, canary health, closed-loop recalibration")
	fs.Float64Var(&o.lifetimes, "lifetimes", 3, "simulated device lifetimes the run spans")
	fs.Float64Var(&o.driftHorizon, "drift-horizon", 120, "simulated seconds per device lifetime (drift horizon)")
	fs.Float64Var(&o.driftNu, "drift-nu", 0, "ePCM drift exponent override (0 = device default)")
	fs.IntVar(&o.canaryPeriod, "canary-period", 2, "served batches between canary probes per replica")
	fs.IntVar(&o.canarySize, "canary-size", 16, "labeled probes in the canary set")
	fs.Float64Var(&o.floor, "accuracy-floor", 0.95, "canary accuracy below which a pass counts against the replica")
	fs.IntVar(&o.flagAfter, "flag-after", 2, "consecutive below-floor canary passes before recalibration")
	fs.BoolVar(&o.fallback, "fallback", false, "fail open to the software backend when no hardware replica is in rotation")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "wear-driven stuck-off fault arrival rate per simulated second")
	fs.Float64Var(&o.diurnalBase, "diurnal-base", 0, "diurnal trough arrival rate (req/s, wall clock; 0 = closed loop)")
	fs.Float64Var(&o.diurnalPeak, "diurnal-peak", 0, "diurnal crest arrival rate (req/s; default 4x base)")
	fs.DurationVar(&o.diurnalPeriod, "diurnal-period", time.Second, "one day/night cycle of the diurnal load")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.searchSteps, o.searchSeed, o.searchBatch = search.Steps, search.Seed, search.Batch
	var err error
	if o.mode, err = report.ParseMode(*csvOut, *jsonOut); err != nil {
		return err
	}

	design, err := arch.ParseDesign(o.design)
	if err != nil {
		return err
	}
	if o.traceOut != "" {
		o.trace = true
	}
	if o.trace {
		// One sliding ring for the whole run: every server built from
		// these options (including per-rate-point loadgen servers)
		// registers its own process on it.
		o.rec = trace.New(trace.DefaultCapacity)
	}
	if o.models != "" {
		if o.loadgen {
			return fmt.Errorf("-models serves the multi-model router; the loadgen drives one network (-network)")
		}
		return runMultiModel(o, design, out)
	}
	if o.lifetime {
		return runLifetimeMode(o, design, out)
	}
	model, err := bnn.NewModel(o.network, o.seed)
	if err != nil {
		return err
	}
	newServer := func() (*serve.Server, error) { return buildServer(o, model, design, nil) }

	if o.loadgen {
		if o.maxBatches != "" {
			return runMaxBatchSweep(o, model, design, out)
		}
		return runLoadgen(o, model, newServer, out)
	}
	s, err := newServer()
	if err != nil {
		return err
	}
	s.Start()
	defer s.Stop()
	fmt.Fprintf(out, "ebserve: %s on %s (design %v, max-batch %d, max-wait %v) listening on %s\n",
		o.network, s.Stats().Backend, design, o.maxBatch, o.maxWait, o.addr)
	return listenAndServe(o.addr, s.Handler(), s.Stop)
}

// listenAndServe serves h on addr until SIGINT or SIGTERM, then shuts
// down through serveUntil; stop ends admission and flushes the batcher.
func listenAndServe(addr string, h http.Handler, stop func()) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveUntil(ctx, ln, h, stop)
}

// shutdownGrace bounds how long a shutdown waits for the handlers still
// writing their replies.
const shutdownGrace = 10 * time.Second

// serveUntil serves h on ln with fixed timeouts, so a slow or idle
// client cannot hold a connection open indefinitely. When ctx ends it
// shuts down without dropping an admitted request: stop first ends
// admission and flushes the batcher, so every admitted request has its
// reply, and only then does http.Server.Shutdown close the listener and
// wait, at most shutdownGrace, for the handlers writing those replies.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler, stop func()) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	stop()
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runMultiModel serves several co-located networks behind the router.
func runMultiModel(o options, design arch.Design, out io.Writer) error {
	router, fabric, err := buildRouter(o, design)
	if err != nil {
		return err
	}
	router.Start()
	defer router.Stop()
	fmt.Fprintf(out, "ebserve: %d models co-located on %v (placer %s): %s\n",
		len(router.Names()), design, o.placer, strings.Join(router.Names(), ", "))
	for _, fm := range fabric.Models {
		fmt.Fprintf(out, "  %-8s region %-16s %8.0f inf/s co-located (%.4fx slowdown vs isolated)\n",
			fm.Name, fm.Region, fm.CoLocatedPerSec, fm.SlowdownX)
	}
	fmt.Fprintf(out, "  fabric: %.0f inf/s aggregate, fairness %.4f, interference wait %.2f us; listening on %s\n",
		fabric.AggregatePerSec, fabric.FairnessJain, fabric.InterferenceWaitNs/1e3, o.addr)
	return listenAndServe(o.addr, router.Handler(), router.Stop)
}

// buildRouter co-locates the -models networks on one fabric and wires
// every model's server (each priced by its co-located pipeline engine).
func buildRouter(o options, design arch.Design) (*serve.Router, serve.FabricSnapshot, error) {
	var snap serve.FabricSnapshot
	var names []string
	for _, n := range strings.Split(o.models, ",") {
		names = append(names, strings.TrimSpace(n))
	}
	evalCfg := eval.DefaultConfig()
	evalCfg.Search = eval.SearchSpec{Steps: o.searchSteps, Seed: o.searchSeed, Batch: o.searchBatch}
	cs, es, _, err := eval.CoLocate(evalCfg, names, design, o.placer, o.maxBatch)
	if err != nil {
		return nil, snap, err
	}
	sr, err := es.RunSet(o.maxBatch)
	if err != nil {
		return nil, snap, err
	}
	snap = serve.NewFabricSnapshot(design.String(), o.placer, sr)
	entries := make([]serve.RouterEntry, 0, len(names))
	for i, name := range names {
		model, err := bnn.NewModel(name, o.seed)
		if err != nil {
			return nil, snap, err
		}
		s, err := buildServer(o, model, design, es.Engines()[i])
		if err != nil {
			return nil, snap, fmt.Errorf("%s: %w", cs[i].ModelName, err)
		}
		entries = append(entries, serve.RouterEntry{Name: name, Server: s})
	}
	router, err := serve.NewRouter(entries)
	if err != nil {
		return nil, snap, err
	}
	router.SetFabric(snap)
	return router, snap, nil
}

// buildBackend picks the execution backend for one model.
func buildBackend(o options, model *bnn.Model, design arch.Design) (serve.Backend, error) {
	switch o.backend {
	case "software":
		return serve.NewSoftwareBackend(model, o.inferW)
	case "hardware":
		spec, err := design.Spec()
		if err != nil {
			return nil, err
		}
		return serve.NewHardwareBackend(model, robust.DefaultConfig(spec.Tech))
	}
	return nil, fmt.Errorf("unknown -backend %q (want software|hardware)", o.backend)
}

// buildServer assembles one server from the options (fresh metrics and
// queue — the loadgen sweep calls it once per rate point). Batches are
// priced on eng, or on a fresh eval.Pipeline when eng is nil.
func buildServer(o options, model *bnn.Model, design arch.Design, eng *sim.Engine) (*serve.Server, error) {
	backend, err := buildBackend(o, model, design)
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{
		Backend:  backend,
		MaxBatch: o.maxBatch,
		MaxWait:  o.maxWait,
		QueueCap: o.queueCap,
		Workers:  o.workers,
		Trace:    o.rec,
	}
	if !o.noPrice {
		if eng == nil {
			if eng, err = eval.Pipeline(eval.DefaultConfig(), model, design); err != nil {
				return nil, err
			}
		}
		if cfg.Pricer, err = serve.NewPricer(eng); err != nil {
			return nil, err
		}
	}
	return serve.New(cfg)
}

// finitePositive reports whether v is a finite number above zero (NaN
// and +Inf get past a plain v <= 0 check).
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// runLifetimeMode drives the device-lifetime scenario — the dynamic
// counterpart of the Fig. 8 robustness statics: replicas always serve
// on simulated ePCM crossbars (the drifting technology), while the
// selected -design prices the stream as usual.
func runLifetimeMode(o options, design arch.Design, out io.Writer) error {
	if o.requests <= 0 {
		return fmt.Errorf("-lifetime needs -requests > 0, got %d", o.requests)
	}
	if !finitePositive(o.lifetimes) || !finitePositive(o.driftHorizon) {
		return fmt.Errorf("-lifetimes %g and -drift-horizon %g must be finite and > 0", o.lifetimes, o.driftHorizon)
	}
	hw := robust.DefaultConfig(device.EPCM)
	hw.Array.Seed = o.seed + 6
	if o.driftNu > 0 {
		hw.Array.EPCM.DriftNu = o.driftNu
	}
	evalCfg := eval.DefaultConfig()
	sc := eval.LifetimeScenario{
		Model:    o.network,
		Design:   design,
		Eval:     evalCfg,
		Hardware: hw,
		Workers:  o.workers,
		MaxBatch: o.maxBatch,
		Requests: o.requests,
		Seed:     o.seed,

		CanarySize: o.canarySize,
		Lifetime: serve.LifetimeConfig{
			CanaryEvery:        o.canaryPeriod,
			Floor:              o.floor,
			FlagAfter:          o.flagAfter,
			FaultRatePerSecond: o.faultRate,
			FaultSeed:          o.seed + 7,
		},
		// Total simulated device time = lifetimes × horizon, spread
		// evenly over the served samples.
		SecondsPerSample: o.lifetimes * o.driftHorizon / float64(o.requests),
		Fallback:         o.fallback,
		Clients:          o.clients,
		Trace:            o.rec,
	}
	if o.noPrice {
		sc.Design = -1
	}
	if o.diurnalBase > 0 {
		peak := o.diurnalPeak
		if peak <= 0 {
			peak = 4 * o.diurnalBase
		}
		sc.Diurnal = &eval.DiurnalLoad{BaseRate: o.diurnalBase, PeakRate: peak, Period: o.diurnalPeriod}
	}
	rep, err := eval.RunLifetime(sc)
	if err != nil {
		return err
	}
	if err := trace.WriteFiles(o.rec, o.traceOut, ""); err != nil {
		return err
	}
	if o.mode == report.ModeCSV {
		return trace.WriteCSV(out, eval.LifetimeTraceRecorder(rep))
	}
	return report.Write(out, o.mode, rep.Table(), rep)
}

// runLoadgen sweeps the requested arrival rates and renders the curve.
func runLoadgen(o options, model *bnn.Model, newServer func() (*serve.Server, error), out io.Writer) error {
	rates, err := parseRates(o.rates)
	if err != nil {
		return err
	}
	size := 1
	for _, d := range model.InputShape {
		size *= d
	}
	base := serve.LoadConfig{
		Requests: o.requests,
		Clients:  o.clients,
		Seed:     o.seed,
		Inputs:   serve.SyntheticInputs(size, 32, o.seed),
	}
	var points []serve.RatePoint
	if len(rates) == 1 && rates[0] == 0 {
		// Closed loop: one point, offered = achieved.
		s, err := newServer()
		if err != nil {
			return err
		}
		rep, err := serve.Run(s, base)
		s.Stop()
		if err != nil {
			return err
		}
		points = []serve.RatePoint{{RatePerSec: 0, Report: rep}}
	} else {
		points, err = serve.SweepRates(newServer, rates, base)
		if err != nil {
			return err
		}
	}
	if err := trace.WriteFiles(o.rec, o.traceOut, ""); err != nil {
		return err
	}
	return report.Write(out, o.mode, serve.LoadCurve(points), points)
}

// runMaxBatchSweep drives the closed-loop generator once per
// dynamic-batch cap and renders throughput vs MaxBatch — the software
// batching curve: the bit-parallel forward path packs up to 64 samples
// per machine word, so software throughput climbs with the cap until
// the lane word is full.
func runMaxBatchSweep(o options, model *bnn.Model, design arch.Design, out io.Writer) error {
	var caps []int
	for _, f := range strings.Split(o.maxBatches, ",") {
		mb, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || mb < 1 {
			return fmt.Errorf("bad -sweep-maxbatch entry %q (want positive integers)", f)
		}
		caps = append(caps, mb)
	}
	size := 1
	for _, d := range model.InputShape {
		size *= d
	}
	base := serve.LoadConfig{
		Requests: o.requests,
		Seed:     o.seed,
		Inputs:   serve.SyntheticInputs(size, 32, o.seed),
	}
	points, err := serve.SweepMaxBatch(func(mb int) (*serve.Server, error) {
		oo := o
		oo.maxBatch = mb
		return buildServer(oo, model, design, nil)
	}, caps, base)
	if err != nil {
		return err
	}
	if err := trace.WriteFiles(o.rec, o.traceOut, ""); err != nil {
		return err
	}
	return report.Write(out, o.mode, serve.BatchCurve(points), points)
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r < 0 {
			return nil, fmt.Errorf("bad -rate entry %q (want non-negative numbers)", f)
		}
		out = append(out, r)
	}
	if len(out) > 1 {
		for _, r := range out {
			if r == 0 {
				return nil, fmt.Errorf("-rate 0 (closed loop) cannot be mixed with open-loop rates")
			}
		}
	}
	return out, nil
}
