// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload per process against the public APIs of the serving
// stack, the analog lifetime path and the offline placement search,
// checks every output, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	go run . -workload serve-http -seed 1 -seconds 20 -trace 0
//
// Workloads (see README.md for why each exists):
//
//	serve-http   MLP-S over Server.Handler() in process: open-loop
//	             Poisson traffic, then a full backlog
//	hw-lifetime  MLP-S on ageing ePCM crossbars in lifetime mode,
//	             lockstep rounds from one submitter
//	dse-search   cold annealing placement searches over the zoo
//
// With -trace 0 the end-to-end metrics are reported; with -trace 1 the
// per-layer metrics, taken by wrapping the public interfaces the
// workload calls (wrap.go) and written as Chrome-trace JSON under
// -trace-dir.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	hostcpu "einsteinbarrier/internal/cpu"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Concurrency settings, fixed so that no count follows the host's CPU
// number beyond maxProcs.
const (
	maxProcs      = 2 // GOMAXPROCS cap
	inferPool     = 1 // software replica pool (MaxBatch ≤ one 64-lane word)
	serverWorkers = 1 // batch executors (backend replicas)
	searchWorkers = 1 // parallel candidate scoring inside one search
	evalWorkers   = 1 // eval.Run fan-out during set-up
)

// options are the parsed command-line flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupOnly bool
	repo      string
	traceDir  string
	writePins string
	// setupRuns overrides the workload's set-up sample count (0 keeps
	// it). Tests set it to 1 so that no child process is started.
	setupRuns int
}

// workload is one benchmark scenario. setup builds everything the
// timed phase needs, warm-up included; measure runs the timed phase for
// at least d; finish stops what setup started and runs the checks that
// need a quiescent system.
type workload interface {
	setup() error
	measure(d time.Duration) (*outcome, error)
	finish(o *outcome) error
}

// outcome is what one timed phase produced.
type outcome struct {
	attempted, failed int64
	// problems lists failed checks (empty when every output is correct).
	problems []string
	// notes say how a run differed from what was asked of it, without
	// making any output wrong.
	notes []string
	// windows cut the timed phase into consecutive slices. The
	// end-to-end numbers are medians over them, so a burst of host noise
	// that hits a few slices does not move the result.
	windows []window
	// layers are the per-layer metrics (traced runs; values default to
	// 0 for layers the workload does not exercise).
	layers map[string]float64
}

// fail records a failed check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// window is one slice [from, to) of the timed phase: the latencies of
// its operations (ms) and, when it counts toward throughput, how many
// operations it completed.
type window struct {
	from, to time.Time
	lat      []float64
	ops      int
	rate     bool // ops/(to-from) is a throughput sample
	steal    float64
}

// summarize reduces windows to the end-to-end numbers: the median over
// windows of each window's throughput and latency percentiles, so one
// stalled window does not move the result. Only the half of the windows
// (latency and throughput windows separately) in which other guests of
// the host stole the least CPU time count; the choice follows the host's
// steal counter, never the measured values.
func summarize(ws []window, steal []stealSample) (perSec, p50, p90, p99 float64, ops int) {
	var latWins, rateWins []window
	for _, w := range ws {
		w.steal = stealShare(steal, w.from, w.to)
		if len(w.lat) > 0 {
			latWins = append(latWins, w)
			ops += len(w.lat)
		}
		if w.rate {
			rateWins = append(rateWins, w)
		}
	}
	var rates, q50, q90, q99 []float64
	for _, w := range leastStolen(rateWins) {
		rates = append(rates, float64(w.ops)/w.to.Sub(w.from).Seconds())
	}
	for _, w := range leastStolen(latWins) {
		q50 = append(q50, quantile(w.lat, 0.50))
		q90 = append(q90, quantile(w.lat, 0.90))
		q99 = append(q99, quantile(w.lat, 0.99))
	}
	return median(rates), median(q50), median(q90), median(q99), ops
}

// leastStolen keeps the windows whose steal share is at most the median
// share: at least half of them, all of them when steal is unmeasured.
func leastStolen(ws []window) []window {
	shares := make([]float64, len(ws))
	for i, w := range ws {
		shares[i] = w.steal
	}
	limit := median(shares)
	var out []window
	for _, w := range ws {
		if w.steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// stealSample is one reading of the host's cumulative CPU counters.
type stealSample struct {
	at           time.Time
	steal, total uint64
}

// sampleSteal reads the CPU counters once before it returns, then
// every interval until stop is closed, and once more after that; it
// then sends every sample on the returned channel. The first and last
// readings bracket every window of a timed phase run between the call
// and close(stop).
func sampleSteal(stop <-chan struct{}, interval time.Duration) <-chan []stealSample {
	read := func(ss []stealSample) []stealSample {
		s, t := cpuSteal()
		return append(ss, stealSample{time.Now(), s, t})
	}
	ss := read(nil)
	done := make(chan []stealSample, 1)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- read(ss)
				return
			case <-tick.C:
				ss = read(ss)
			}
		}
	}()
	return done
}

// stealShare is the share of CPU time stolen over [from, to), from the
// samples that bracket it. It is 0 when no samples bracket the window
// or /proc/stat is unreadable; sampleSteal's first and last readings
// bracket every window of a timed phase.
func stealShare(ss []stealSample, from, to time.Time) float64 {
	i := sort.Search(len(ss), func(k int) bool { return ss[k].at.After(from) }) - 1
	j := sort.Search(len(ss), func(k int) bool { return !ss[k].at.Before(to) })
	if i < 0 || j >= len(ss) || ss[j].total <= ss[i].total {
		return 0
	}
	return float64(ss[j].steal-ss[i].steal) / float64(ss[j].total-ss[i].total)
}

// env is what every workload is built from.
type env struct {
	seed  int64
	repo  string
	probe *probe // nil unless traced
}

func newWorkload(name string, e env) (workload, int, error) {
	switch name {
	case "serve-http":
		return &serveHTTP{env: e}, 5, nil
	case "hw-lifetime":
		return &hwLifetime{env: e}, 5, nil
	case "dse-search":
		return &dseSearch{env: e}, 3, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want serve-http, hw-lifetime or dse-search)", name)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "serve-http, hw-lifetime or dse-search")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up once, print the set-up seconds and exit")
	fs.StringVar(&o.repo, "repo", ".", "repository root (for the Fig. 7/8 golden CSV)")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where traced runs write Chrome-trace JSON")
	fs.StringVar(&o.writePins, "write-pins", "", "regenerate the pinned reference outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))

	if o.writePins != "" {
		if err := writePins(o.writePins, o.repo); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if err := loadPins(); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be > 0")
		return 2
	}
	if err := bench(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// bench runs one workload in this process and prints the result line.
func bench(o options, stdout, stderr io.Writer) error {
	e := env{seed: o.seed, repo: o.repo}
	if o.trace {
		e.probe = newProbe(o.workload)
	}
	w, setupRuns, err := newWorkload(o.workload, e)
	if err != nil {
		return err
	}
	if o.setupRuns > 0 {
		setupRuns = o.setupRuns
	}
	if o.setupOnly {
		runtime.GC()
		t := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		s := time.Since(t).Seconds()
		if err := w.finish(&outcome{}); err != nil {
			return err
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(s, 'g', -1, 64))
		return nil
	}

	// Set-up time is the median over fresh processes: setupRuns-1
	// children that only set up, then this process.
	var setups []float64
	if !o.trace {
		for i := 1; i < setupRuns; i++ {
			s, err := childSetup(o)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	runtime.GC()
	t := time.Now()
	if err := w.setup(); err != nil {
		return err
	}
	setups = append(setups, time.Since(t).Seconds())

	runtime.GC()
	stopSampling := make(chan struct{})
	samples := sampleSteal(stopSampling, 50*time.Millisecond)
	out, err := w.measure(time.Duration(o.seconds * float64(time.Second)))
	close(stopSampling)
	steal := <-samples
	if err != nil {
		return err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if err := w.finish(out); err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(stderr, "e2ebench: check failed:", p)
	}
	for _, n := range out.notes {
		fmt.Fprintln(stderr, "e2ebench: note:", n)
	}

	perSec, p50, p90, p99, ops := summarize(out.windows, steal)
	e2e := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"throughput_per_s": {perSec, "1/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"latency_p99_ms":   {p99, "ms"},
		"live_heap_mb":     {float64(mem.HeapAlloc) / (1 << 20), "MB"},
	}
	metrics := e2e
	if o.trace {
		metrics = map[string]metric{}
		for _, name := range layerNames {
			metrics[name.name] = metric{Value: out.layers[name.name], Unit: name.unit}
		}
		if err := e.probe.write(o.traceDir, o.workload, o.seed); err != nil {
			return err
		}
		if n := e.probe.rec.Dropped(); n > 0 {
			fmt.Fprintf(stderr, "e2ebench: note: the trace export holds the last %d events; %d earlier ones were dropped\n",
				e.probe.rec.Len(), n)
		}
	}
	info, _ := json.Marshal(map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"host":       hostFacts(),
		"operations": ops, "windows": len(out.windows), "setup_samples_s": setups, "notes": out.notes,
		"steal_share": stealShare(steal, steal[0].at, steal[len(steal)-1].at),
		// Printed on traced runs too: traced minus untraced is the
		// tracing overhead.
		"end_to_end": e2e,
		"concurrency": map[string]int{
			"gomaxprocs": runtime.GOMAXPROCS(0), "infer_pool": inferPool,
			"server_workers": serverWorkers, "search_workers": searchWorkers,
			"eval_workers": evalWorkers,
		},
	})
	fmt.Fprintf(stdout, "%s\n", info)
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childSetup runs one set-up in a fresh copy of this program and
// returns its seconds.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-repo", o.repo, "-setup-only")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0, fmt.Errorf("set-up child printed nothing")
	}
	return strconv.ParseFloat(fields[len(fields)-1], 64)
}

// hostFacts records what the numbers were measured on.
func hostFacts() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{"nproc": runtime.NumCPU(), "cpu": cpu, "go": runtime.Version(),
		"os": runtime.GOOS, "arch": runtime.GOARCH,
		// The bitops and tensor kernels dispatch on these.
		"avx512f": hostcpu.HasAVX512F, "avx512_vpopcntdq": hostcpu.HasAVX512VPOPCNTDQ}
}

// cpuSteal reads the host's cumulative CPU steal and total time (in
// clock ticks) from /proc/stat; on a virtual machine the steal share of
// a timed phase says how much of it other guests took. Zeros when the
// file is unavailable.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest columns
	// that may follow are already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// quantile is the q-quantile of xs with linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
