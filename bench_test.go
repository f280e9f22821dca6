// Package bench is the benchmark harness that regenerates every
// figure/table of the paper's evaluation (see DESIGN.md experiment
// index). Run with:
//
//	go test -bench=. -benchmem
//
// Benchmark families:
//
//	BenchmarkFig7/*   — E1: per-network inference latency on the three
//	                    CIM designs + the GPU baseline; the reported
//	                    custom metrics ns/inference and speedup-vs-
//	                    baseline are the Fig. 7 series.
//	BenchmarkFig8/*   — E2: per-network energy; reported metric
//	                    pJ/inference and norm-energy are the Fig. 8
//	                    series.
//	BenchmarkStep/*   — E5: single-array XNOR+Popcount step through the
//	                    functional analog crossbar under both mappings.
//	BenchmarkWDM/*    — E6: oPCM MMM throughput vs wavelength count.
//	BenchmarkBitops/* — the software kernel floor (packed XNOR+popcount).
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/crossbar"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/eval"
	"einsteinbarrier/internal/gpu"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/sim"
	"einsteinbarrier/internal/tensor"
	"einsteinbarrier/internal/trace"
)

// benchReport caches one full evaluation for the Fig. 7/8 benches.
var benchReport *eval.Report

func report(b *testing.B) *eval.Report {
	b.Helper()
	if benchReport == nil {
		rep, err := eval.Run(eval.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchReport = rep
	}
	return benchReport
}

// BenchmarkFig7 regenerates the latency figure: for every network and
// design, the simulator prices one inference; the emitted metrics are
// the figure series.
func BenchmarkFig7(b *testing.B) {
	cfg := eval.DefaultConfig()
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		b.Fatal(err)
	}
	rep := report(b)
	for _, nr := range rep.SortedByName() {
		model, err := bnn.Arch(nr.Network)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
			d := d
			b.Run(fmt.Sprintf("%s/%v", nr.Network, d), func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					c, err := compiler.Compile(model, cfg.Arch, d)
					if err != nil {
						b.Fatal(err)
					}
					r, err := simulator.Run(c)
					if err != nil {
						b.Fatal(err)
					}
					lat = r.LatencyNs
				}
				b.ReportMetric(lat, "ns/inference")
				b.ReportMetric(nr.LatBaseline/lat, "speedup-vs-baseline")
			})
		}
		b.Run(fmt.Sprintf("%s/Baseline-GPU", nr.Network), func(b *testing.B) {
			g := gpu.DefaultModel()
			var lat float64
			for i := 0; i < b.N; i++ {
				lat = g.InferenceLatencyNs(model)
			}
			b.ReportMetric(lat, "ns/inference")
			b.ReportMetric(nr.LatBaseline/lat, "speedup-vs-baseline")
		})
	}
}

// BenchmarkFig8 regenerates the energy figure.
func BenchmarkFig8(b *testing.B) {
	cfg := eval.DefaultConfig()
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		b.Fatal(err)
	}
	rep := report(b)
	for _, nr := range rep.SortedByName() {
		model, err := bnn.Arch(nr.Network)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
			d := d
			b.Run(fmt.Sprintf("%s/%v", nr.Network, d), func(b *testing.B) {
				var e float64
				for i := 0; i < b.N; i++ {
					c, err := compiler.Compile(model, cfg.Arch, d)
					if err != nil {
						b.Fatal(err)
					}
					r, err := simulator.Run(c)
					if err != nil {
						b.Fatal(err)
					}
					e = r.EnergyPJ()
				}
				b.ReportMetric(e, "pJ/inference")
				b.ReportMetric(e/nr.EnergyBaseline, "norm-energy")
			})
		}
	}
}

// BenchmarkStep regenerates E5: one XNOR+Popcount pass of an n×m layer
// through the functional analog crossbar under each mapping — the §III
// "n× fewer steps" microbenchmark, measured in real simulated work.
func BenchmarkStep(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{16, 64, 128, 256} {
		const m = 128
		weights := bitops.NewMatrix(n, m)
		for r := 0; r < n; r++ {
			for c := 0; c < m; c++ {
				weights.Set(r, c, rng.Intn(2) == 1)
			}
		}
		x := bitops.NewVector(m)
		for i := 0; i < m; i++ {
			if rng.Intn(2) == 1 {
				x.Set(i)
			}
		}
		b.Run(fmt.Sprintf("TacitMap/n=%d", n), func(b *testing.B) {
			cfg := crossbar.DefaultConfig(device.EPCM)
			mapped, err := core.MapTacit(weights, cfg)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]int, mapped.Plan().N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapped.ExecuteInto(x, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mapped.Plan().SingleArrayStepsPerInput()), "array-steps")
		})
		b.Run(fmt.Sprintf("CustBinaryMap/n=%d", n), func(b *testing.B) {
			mapped, err := core.MapCust(weights, crossbar.DefaultDiffConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mapped.Execute(x); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(mapped.Plan().SingleArrayStepsPerInput()), "array-steps")
		})
	}
}

// BenchmarkWDM regenerates E6: functional MMM over K wavelengths on one
// oPCM array — work per activation grows K× while the activation count
// stays constant.
func BenchmarkWDM(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	cfg := crossbar.DefaultConfig(device.OPCM)
	cfg.Rows, cfg.Cols = 128, 64
	cfg.ADCBits = 8
	arr, err := crossbar.NewArray(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := bitops.NewMatrix(cfg.Rows, cfg.Cols)
	for r := 0; r < cfg.Rows; r++ {
		for c := 0; c < cfg.Cols; c++ {
			m.Set(r, c, rng.Intn(2) == 1)
		}
	}
	if err := arr.Program(m); err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 2, 4, 8, 16} {
		inputs := make([]*bitops.Vector, k)
		for i := range inputs {
			inputs[i] = bitops.NewVector(cfg.Rows)
			for r := 0; r < cfg.Rows; r++ {
				if rng.Intn(2) == 1 {
					inputs[i].Set(r)
				}
			}
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			dst := make([][]int, k)
			for i := range dst {
				dst[i] = make([]int, cfg.Cols)
			}
			arr.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arr.MMMInto(inputs, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s := arr.Stats()
			b.ReportMetric(float64(s.WavelengthOps)/float64(b.N), "wavelength-ops/activation")
		})
	}
}

// BenchmarkCalibration is the regression gate's clock: a fixed,
// dependency-free integer workload (splitmix64 over 64Ki steps) whose
// ns/op tracks raw host speed. cmd/benchgate divides every gated
// benchmark's ns/op by this before comparing against
// bench_baseline.json, so a uniformly slower CI runner does not read as
// a regression — only changes relative to the machine do.
func BenchmarkCalibration(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		x := uint64(0x9e3779b97f4a7c15)
		for j := 0; j < 1<<16; j++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			sink ^= z ^ (z >> 31)
		}
	}
	if sink == 42 {
		b.Log(sink) // defeat dead-code elimination
	}
}

// BenchmarkBitops measures the packed software kernel (the GPU/CPU
// reference floor for Eq. (1)).
func BenchmarkBitops(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{128, 1024, 8192} {
		x := bitops.NewVector(m)
		w := bitops.NewVector(m)
		for i := 0; i < m; i++ {
			if rng.Intn(2) == 1 {
				x.Set(i)
			}
			if rng.Intn(2) == 1 {
				w.Set(i)
			}
		}
		b.Run(fmt.Sprintf("XnorPopcount/m=%d", m), func(b *testing.B) {
			b.SetBytes(int64(m / 8))
			for i := 0; i < b.N; i++ {
				_ = bitops.XnorPopcount(x, w)
			}
		})
	}
	w := bitops.NewMatrix(256, 1024)
	for r := 0; r < 256; r++ {
		for c := 0; c < 1024; c++ {
			w.Set(r, c, rng.Intn(2) == 1)
		}
	}
	x := bitops.NewVector(1024)
	for i := 0; i < 1024; i++ {
		if rng.Intn(2) == 1 {
			x.Set(i)
		}
	}
	dst := make([]int, 256)
	b.Run("BipolarMatVec/256x1024", func(b *testing.B) {
		b.SetBytes(256 * 1024 / 8)
		for i := 0; i < b.N; i++ {
			w.BipolarMatVecInto(x, dst)
		}
	})
	b.Run("XnorPopcountAllInto/256x1024", func(b *testing.B) {
		b.SetBytes(256 * 1024 / 8)
		for i := 0; i < b.N; i++ {
			w.XnorPopcountAllInto(x, dst)
		}
	})
	b.Run("Transpose/256x1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = w.Transpose()
		}
	})
}

// BenchmarkBitBatch measures the batch-major bit-parallel path (E10):
// 64 samples per machine word through pack/unpack, the fused
// XNOR+popcount+sign batch kernel, and the full model forward. The
// ns/sample metric is the per-inference cost at the batch's lane
// count; compare against BenchmarkBitops (one sample per call) and the
// serial64 runs for the bit-parallel speedup. The MLP-S batch=1/5/8
// runs are ragged batches, which pay for their live lanes only.
func BenchmarkBitBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	const feat, lanes = 1024, 64
	samples := make([]*bitops.Vector, lanes)
	for s := range samples {
		samples[s] = bitops.NewVector(feat)
		for f := 0; f < feat; f++ {
			if rng.Intn(2) == 1 {
				samples[s].Set(f)
			}
		}
	}
	batch := bitops.PackSamples(samples)
	b.Run(fmt.Sprintf("PackSamples/%dx%d", feat, lanes), func(b *testing.B) {
		b.SetBytes(int64(feat * lanes / 8))
		for i := 0; i < b.N; i++ {
			batch = bitops.PackSamplesInto(samples, batch)
		}
	})
	w := bitops.NewMatrix(1024, feat)
	thresh := make([]int, 1024)
	for r := 0; r < 1024; r++ {
		thresh[r] = rng.Intn(65) - 32
		for c := 0; c < feat; c++ {
			w.Set(r, c, rng.Intn(2) == 1)
		}
	}
	out := bitops.NewBitBatch(1024, lanes)
	var scr bitops.BatchScratch
	b.Run(fmt.Sprintf("BipolarSignBatch/1024x%dx%d", feat, lanes), func(b *testing.B) {
		b.SetBytes(int64(1024 * feat / 8))
		for i := 0; i < b.N; i++ {
			out = w.BipolarSignBatchInto(batch, thresh, out, &scr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/lanes, "ns/sample")
	})
	// Full words for both model families, then the ragged batches the
	// open-loop server forms: these pay for their live lanes only.
	for _, c := range []struct {
		name  string
		lanes int
	}{{"MLP-S", lanes}, {"CNN-S", lanes}, {"MLP-S", 1}, {"MLP-S", 5}, {"MLP-S", 8}} {
		model, err := bnn.NewModel(c.name, 1)
		if err != nil {
			b.Fatal(err)
		}
		xs := make([]*tensor.Float, c.lanes)
		for i := range xs {
			xs[i] = tensor.NewFloat(model.InputShape...)
			for j := range xs[i].Data() {
				xs[i].Data()[j] = rng.NormFloat64()
			}
		}
		b.Run(fmt.Sprintf("InferBatchBits/%s/batch=%d", c.name, c.lanes), func(b *testing.B) {
			model.InferBatchBits(xs) // warm model-owned scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.InferBatchBits(xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.lanes), "ns/sample")
		})
	}
}

// BenchmarkPipeline regenerates the batch-throughput extension: the
// tile-level pipelined engine streams B inferences through every
// design's stage pipeline (including the registry-added MLC-ePCM and
// wide-K designs). The reported inf/s metric is the achieved
// steady-state throughput of the simulated hardware; ns/op measures the
// engine itself.
func BenchmarkPipeline(b *testing.B) {
	cfg := eval.DefaultConfig()
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		b.Fatal(err)
	}
	designs := []arch.Design{
		arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier,
		arch.MLCEPCM, arch.EinsteinBarrierK64,
	}
	for _, network := range []string{"CNN-S", "CNN-L", "MLP-L"} {
		model, err := bnn.Arch(network)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range designs {
			c, err := compiler.Compile(model, cfg.Arch, d)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := simulator.NewEngine(c)
			if err != nil {
				b.Fatal(err)
			}
			for _, batch := range []int{1, 16, 256} {
				b.Run(fmt.Sprintf("%s/%v/B=%d", network, d, batch), func(b *testing.B) {
					var br *sim.BatchResult
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						var err error
						if br, err = eng.RunBatch(batch); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(br.ThroughputPerSec, "inf/s")
					b.ReportMetric(br.SteadyStatePerSec, "inf/s-ceiling")
					b.ReportMetric(br.LatencyNs, "ns/inference")
				})
			}
		}
	}
}

// BenchmarkPlacement measures the placement IR end to end: for each
// placer the model is compiled (placement included) and a batch is
// scheduled through the pipeline engine. ns/op is the compile+schedule
// cost; the emitted metrics are the placement-comparison table's
// essentials — achieved inf/s, NoC stall per batch, and the layout's
// tile footprint. One co-location case prices a two-model shared
// fabric (CompileSet + EngineSet) with its interference wait.
func BenchmarkPlacement(b *testing.B) {
	cfg := eval.DefaultConfig()
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	for _, network := range []string{"CNN-L", "MLP-L"} {
		model, err := bnn.Arch(network)
		if err != nil {
			b.Fatal(err)
		}
		for _, placer := range []compiler.Placer{
			compiler.GreedyPlacer{}, compiler.MeshPlacer{}, compiler.ShardPlacer{},
		} {
			b.Run(fmt.Sprintf("%s/%s", network, placer.Name()), func(b *testing.B) {
				var br *sim.BatchResult
				var tiles int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c, err := compiler.CompileWith(model, cfg.Arch, arch.EinsteinBarrier,
						compiler.Options{Placer: placer})
					if err != nil {
						b.Fatal(err)
					}
					eng, err := simulator.NewEngine(c)
					if err != nil {
						b.Fatal(err)
					}
					if br, err = eng.RunBatch(batch); err != nil {
						b.Fatal(err)
					}
					tiles = c.Placement.TotalTiles(cfg.Arch)
				}
				b.ReportMetric(br.ThroughputPerSec, "inf/s")
				b.ReportMetric(br.LinkWaitNs, "linkwait-ns")
				b.ReportMetric(float64(tiles), "tiles")
			})
		}
	}
	b.Run("colocate/CNN-L+MLP-M/mesh", func(b *testing.B) {
		m1, err := bnn.Arch("CNN-L")
		if err != nil {
			b.Fatal(err)
		}
		m2, err := bnn.Arch("MLP-M")
		if err != nil {
			b.Fatal(err)
		}
		var sr *sim.SetResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cs, err := compiler.CompileSet([]bnn.Network{m1, m2}, cfg.Arch,
				arch.EinsteinBarrier, compiler.SetOptions{Placer: compiler.MeshPlacer{}})
			if err != nil {
				b.Fatal(err)
			}
			es, err := simulator.NewEngineSet(cs)
			if err != nil {
				b.Fatal(err)
			}
			if sr, err = es.RunSet(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(sr.AggregatePerSec, "inf/s")
		b.ReportMetric(sr.FairnessJain, "jain")
		b.ReportMetric(sr.InterferenceWaitNs, "interference-ns")
	})
}

// BenchmarkPlacerSearch measures the optimizing placer at its default
// step count: a full simulated-annealing search over MLP-L layouts with
// the pipeline engine as the objective, every run sharing one
// fingerprint-keyed evaluation cache (the repeated-search pattern of
// serve recompilation — search is deterministic, so revisited layouts
// are priced exactly once across the whole benchmark). steps/s is the candidate-evaluation rate, cache-hit-% the
// evaluator's cumulative hit rate (the acceptance floor is ≥50%), and
// inf/s the searched layout's engine-measured objective.
func BenchmarkPlacerSearch(b *testing.B) {
	cfg := eval.DefaultConfig()
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 64
	pe, err := simulator.PlacementEvaluator(batch)
	if err != nil {
		b.Fatal(err)
	}
	// The search reads only shapes, but it allocates ~470 KB per run, so
	// its GC pace, and ns/op with it, follows the live heap. The gated
	// baseline was measured with MLP-L's synthesized weights live.
	model, err := bnn.NewModel("MLP-L", cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	search := func() *compiler.SearchPlacer {
		sp, err := compiler.NewSearchPlacer(model, cfg.Arch, arch.EinsteinBarrier, pe,
			compiler.SearchOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compiler.CompileWith(model, cfg.Arch, arch.EinsteinBarrier,
			compiler.Options{Placer: sp}); err != nil {
			b.Fatal(err)
		}
		return sp
	}
	search() // warm the shared cache, untimed
	b.ReportAllocs()
	b.ResetTimer()
	var sp *compiler.SearchPlacer
	for i := 0; i < b.N; i++ {
		sp = search()
	}
	st := sp.Stats()
	b.ReportMetric(float64(b.N*st.Steps)/b.Elapsed().Seconds(), "steps/s")
	b.ReportMetric(100*pe.HitRate(), "cache-hit-%")
	b.ReportMetric(st.BestScore, "inf/s")
}

// BenchmarkServe measures the online serving subsystem end to end:
// closed-loop clients stream requests through the admission queue and
// the dynamic batcher into backend replicas. ns/op is the wall-clock
// cost per served request; the req/s and mean-batch metrics show what
// the scheduling policy achieved, and sim-inf/s is the per-batch
// accelerator pricing of the stream — the online counterpart of the
// offline BenchmarkPipeline numbers, which have no queueing, batching
// or reply overhead.
func BenchmarkServe(b *testing.B) {
	model, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		b.Fatal(err)
	}
	inputs := serve.SyntheticInputs(784, 32, 9)
	for _, maxBatch := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("Software/MLP-S/maxB=%d", maxBatch), func(b *testing.B) {
			s := pricedServer(b, model, maxBatch)
			b.ResetTimer()
			rep, err := serve.Run(s, serve.LoadConfig{
				Clients: 2 * maxBatch, Requests: b.N, Seed: 9, Inputs: inputs,
			})
			b.StopTimer()
			s.Stop()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.AchievedPerSec, "req/s")
			b.ReportMetric(rep.Stats.MeanBatch, "mean-batch")
			b.ReportMetric(rep.Stats.Latency.P99*1e6, "p99-ns")
			if sim := rep.Stats.Sim; sim != nil {
				b.ReportMetric(sim.PerSec, "sim-inf/s")
			}
		})
	}
	// HTTP is the same stream through Handler().ServeHTTP with
	// pre-marshalled JSON bodies: the /infer codec on top of the
	// batcher, as a client of the HTTP front end sees it.
	b.Run("HTTP/MLP-S/maxB=64", func(b *testing.B) {
		const maxBatch = 64
		bodies := make([][]byte, len(inputs))
		for i, x := range inputs {
			body, err := json.Marshal(serve.InferRequest{Input: x.Data()})
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = body
		}
		s := pricedServer(b, model, maxBatch)
		s.Start()
		h := s.Handler()
		var next, failed atomic.Int64
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for range 2 * maxBatch {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", bytes.NewReader(bodies[i%int64(len(bodies))])))
					if rec.Code != http.StatusOK {
						failed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		s.Stop()
		if n := failed.Load(); n > 0 {
			b.Fatalf("%d of %d requests failed", n, b.N)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("Hardware/MLP-S/maxB=4", func(b *testing.B) {
		hw, err := serve.NewHardwareBackend(model, robust.DefaultConfig(device.EPCM))
		if err != nil {
			b.Fatal(err)
		}
		s, err := serve.New(serve.Config{
			Backend:  hw,
			MaxBatch: 4,
			MaxWait:  100 * time.Microsecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		rep, err := serve.Run(s, serve.LoadConfig{
			Clients: 8, Requests: b.N, Seed: 9, Inputs: inputs,
		})
		b.StopTimer()
		s.Stop()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.AchievedPerSec, "req/s")
		b.ReportMetric(rep.Stats.MeanBatch, "mean-batch")
	})
}

// pricedServer builds the software MLP-S server BenchmarkServe streams
// through, with every batch priced on EinsteinBarrier.
func pricedServer(b *testing.B, model *bnn.Model, maxBatch int) *serve.Server {
	b.Helper()
	backend, err := serve.NewSoftwareBackend(model, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := eval.Pipeline(eval.DefaultConfig(), model, arch.EinsteinBarrier)
	if err != nil {
		b.Fatal(err)
	}
	pricer, err := serve.NewPricer(eng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Backend:  backend,
		MaxBatch: maxBatch,
		MaxWait:  100 * time.Microsecond,
		Pricer:   pricer,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkLifetime measures the device-lifetime machinery. Probe is
// the steady-state hot path the loop adds to serving — one canary
// evaluation of a hardware replica — and Age is the drift step every
// served batch pays (one AgeAll over the replica's mapped tiles); both
// are per-op stable, so they are the gated entries. The Loop/*
// sub-benchmarks run the whole detect/drain/recalibrate/return cycle
// end to end; their per-request cost depends on how many
// recalibrations b.N happens to trigger, so they are smoke-only (recals
// and recal-pJ report the repair work the stream triggered at the
// configured wear rate).
func BenchmarkLifetime(b *testing.B) {
	model, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		b.Fatal(err)
	}
	hw := robust.DefaultConfig(device.EPCM)
	hw.Array.EPCM.ReadNoiseSigma = 0
	hw.Array.Seed = 7
	canary, err := serve.NewCanarySet(model, serve.SyntheticInputs(784, 16, 2))
	if err != nil {
		b.Fatal(err)
	}
	inputs := serve.SyntheticInputs(784, 32, 9)

	b.Run("Probe/MLP-S", func(b *testing.B) {
		backend, err := serve.NewHardwareBackend(model, hw)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := backend.NewReplica()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := canary.Evaluate(rep); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("Age/MLP-S", func(b *testing.B) {
		replica, err := robust.Map(model, hw)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			replica.AgeAll(1)
		}
	})

	for _, mode := range []struct {
		name     string
		fallback bool
	}{{"Loop/Canary/MLP-S", false}, {"Loop/Fallback/MLP-S", true}} {
		b.Run(mode.name, func(b *testing.B) {
			backend, err := serve.NewHardwareBackend(model, hw)
			if err != nil {
				b.Fatal(err)
			}
			life := &serve.LifetimeConfig{
				// ~80 device-seconds per batch of 4: aggressive enough
				// that the 120 s drift horizon recurs throughout b.N.
				Clock:       serve.BatchClock{SecondsPerSample: 20},
				Canary:      canary,
				CanaryEvery: 3,
				Floor:       0.99,
				FlagAfter:   2,
			}
			if mode.fallback {
				life.Fallback = model
			}
			s, err := serve.New(serve.Config{
				Backend:  backend,
				MaxBatch: 4,
				MaxWait:  100 * time.Microsecond,
				Lifetime: life,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			rep, err := serve.Run(s, serve.LoadConfig{
				Clients: 8, Requests: b.N, Seed: 9, Inputs: inputs,
			})
			b.StopTimer()
			s.Stop()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.AchievedPerSec, "req/s")
			if life := s.Stats().Lifetime; life != nil {
				b.ReportMetric(float64(life.Recalibrations), "recals")
				b.ReportMetric(life.RecalEnergyPJ, "recal-pJ")
				b.ReportMetric(float64(life.FallbackServed), "fallback-served")
			}
		})
	}
}

// BenchmarkEvalRun measures the full Fig. 7/8 evaluation (compile +
// simulate, all networks × designs) through the parallel engine at
// several worker-pool sizes; workers=1 is the serial reference.
func BenchmarkEvalRun(b *testing.B) {
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			cfg := eval.DefaultConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := eval.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompile measures the compiler itself across the zoo.
func BenchmarkCompile(b *testing.B) {
	cfg := arch.DefaultConfig()
	for _, model := range bnn.ZooArchs() {
		b.Run(model.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(model, cfg, arch.EinsteinBarrier); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainerEpoch measures the STE training substrate.
func BenchmarkTrainerEpoch(b *testing.B) {
	xs := make([][]float64, 64)
	ys := make([]int, 64)
	rng := rand.New(rand.NewSource(12))
	for i := range xs {
		xs[i] = make([]float64, 784)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		ys[i] = rng.Intn(10)
	}
	tr, err := bnn.NewTrainer(bnn.TrainerConfig{Sizes: []int{784, 64, 64, 10}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainEpoch(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnergyModel exercises the cost-table hot path (Eq. 2/3).
func BenchmarkEnergyModel(b *testing.B) {
	costs := energy.DefaultCostParams()
	b.Run("TransmitterPowerEq3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = costs.TransmitterPowerMW(16, 256)
		}
	})
	b.Run("StaticOpticalPower", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = costs.StaticOpticalPowerMW(256, 256, 16)
		}
	})
}

// BenchmarkCrossbarVMM measures the functional analog simulator itself
// across array sizes (per simulated VMM, noise on).
func BenchmarkCrossbarVMM(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{64, 128, 256} {
		cfg := crossbar.DefaultConfig(device.EPCM)
		cfg.Rows, cfg.Cols = n, n
		cfg.ADCBits = 10
		arr, err := crossbar.NewArray(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m := bitops.NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				m.Set(r, c, rng.Intn(2) == 1)
			}
		}
		if err := arr.Program(m); err != nil {
			b.Fatal(err)
		}
		x := bitops.NewVector(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				x.Set(i)
			}
		}
		dst := make([]int, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := arr.VMMInto(x, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHardwareInference measures one full hardware-in-the-loop
// inference (binary layers on simulated arrays) for the robustness
// studies.
func BenchmarkHardwareInference(b *testing.B) {
	model, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		b.Fatal(err)
	}
	hw, err := robust.Map(model, robust.DefaultConfig(device.EPCM))
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.NewFloat(784)
	rng := rand.New(rand.NewSource(14))
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hw.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialization measures model save/load round trips.
func BenchmarkSerialization(b *testing.B) {
	model, err := bnn.NewModel("MLP-S", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if err := bnn.WriteModel(&buf, model); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
		}
	})
	var buf bytes.Buffer
	if err := bnn.WriteModel(&buf, model); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("Read", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := bnn.ReadModel(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTrace prices the trace recorder against the pipeline hot
// path (DESIGN.md "Trace observability"). Disabled is the guardrail:
// a nil recorder must cost nothing — same schedule and same allocs/op
// as BenchmarkPipeline's CNN-L/EinsteinBarrier/B=256 case (the
// recorder itself adds zero; see the AllocsPerRun pin in
// internal/trace), so the ≤2% overhead acceptance bound reads straight
// off the two series. Enabled re-runs the identical batch into a ring
// sized to hold every event (events/sample is the reported density);
// Export streams the filled ring as Chrome-trace JSON and CSV.
func BenchmarkTrace(b *testing.B) {
	cfg := eval.DefaultConfig()
	simulator, err := sim.New(cfg.Arch, cfg.Costs)
	if err != nil {
		b.Fatal(err)
	}
	model, err := bnn.Arch("CNN-L")
	if err != nil {
		b.Fatal(err)
	}
	c, err := compiler.Compile(model, cfg.Arch, arch.EinsteinBarrier)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := simulator.NewEngine(c)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 256
	b.Run("Disabled/CNN-L/EinsteinBarrier/B=256", func(b *testing.B) {
		eng.EnableTrace(nil)
		var br *sim.BatchResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if br, err = eng.RunBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(br.ThroughputPerSec, "inf/s")
	})
	rec := trace.New(batch*eng.TraceEventsPerSample() + 16)
	b.Run("Enabled/CNN-L/EinsteinBarrier/B=256", func(b *testing.B) {
		eng.EnableTrace(rec)
		defer eng.EnableTrace(nil)
		var br *sim.BatchResult
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Reset()
			if br, err = eng.RunBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(br.ThroughputPerSec, "inf/s")
		b.ReportMetric(float64(rec.Len())/batch, "events/sample")
		if rec.Dropped() != 0 {
			b.Fatalf("ring sized for the batch still dropped %d events", rec.Dropped())
		}
	})
	// Fill the ring once so the export benches stream a full batch.
	eng.EnableTrace(rec)
	rec.Reset()
	if _, err := eng.RunBatch(batch); err != nil {
		b.Fatal(err)
	}
	eng.EnableTrace(nil)
	b.Run("Export/Chrome", func(b *testing.B) {
		var n countingWriter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n = 0
			if err := trace.WriteChrome(&n, rec); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(n))
		b.ReportMetric(float64(rec.Len()), "events")
	})
	b.Run("Export/CSV", func(b *testing.B) {
		var n countingWriter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n = 0
			if err := trace.WriteCSV(&n, rec); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(n))
	})
}

// countingWriter discards writes but keeps the byte count, so export
// benches report MB/s without buffering the document.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
