// Package infer is the parallel batched inference engine: a worker
// pool that fans independent work items out over N goroutines with
// deterministic, index-ordered results, and an Engine that runs BNN
// reference inference over batches using one scratch-carrying model
// clone per worker (bnn.Model.CloneShared), so the hot loop stays
// allocation-free inside each worker.
//
// Everything executed through this package is pure integer/float math
// with no cross-item state, so parallel results are bit-identical to
// serial execution — the equivalence tests in this package and in
// internal/eval pin that down.
package infer

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/tensor"
)

// Workers normalizes a worker-count setting: values < 1 mean "one per
// available CPU", and the count is clamped to n when n is smaller.
func Workers(workers, n int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Map runs fn(worker, i) for i in [0, n) on up to `workers` goroutines
// (< 1 means one per CPU) and returns the results in index order,
// regardless of scheduling. The worker id is in [0, Workers(workers,
// n)) and is stable for the duration of the call, so fn can index
// per-worker scratch state. If any call fails, the error from the
// lowest failing index is returned (deterministically) and remaining
// items may be skipped.
func Map[T any](workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers = Workers(workers, n)

	var (
		next   atomic.Int64
		ids    atomic.Int64
		mu     sync.Mutex
		firstI = -1
		firstE error
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstI == -1 || i < firstI {
			firstI, firstE = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	// One argument-free closure serves every worker, each drawing its
	// id on entry: a go statement with arguments would allocate a
	// closure per worker, making the call's allocation count depend on
	// the worker count (and so on GOMAXPROCS when workers < 1).
	work := func() {
		defer wg.Done()
		w := int(ids.Add(1)) - 1
		for {
			// Check the failure flag BEFORE drawing an index: a drawn
			// index always executes, so the monotonically increasing
			// counter guarantees the lowest failing index is always
			// attempted and recorded, keeping the returned error
			// deterministic under any scheduling.
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			r, err := fn(w, i)
			if err != nil {
				record(i, err)
				return
			}
			out[i] = r
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}
	return out, nil
}

// Engine runs batched reference inference for one BNN model across a
// fixed-size worker pool. Each worker lazily acquires a CloneShared
// copy of the model on first use (so small batches never pay for
// unused clones), and per-inference work reuses that worker's scratch
// buffers, so the batch loop performs no steady-state allocations
// beyond the result slice. The engine never touches the model passed
// to New, so the caller may keep using it concurrently; batch calls on
// one Engine are serialized internally, so the Engine itself is also
// safe for concurrent use (concurrent batches queue rather than
// overlap — use one Engine per caller for overlap).
type Engine struct {
	workers int
	proto   *bnn.Model
	mu      sync.Mutex // serializes batches; models[w] and chunks[w] are per-worker scratch
	models  []*bnn.Model
	chunks  [][]*tensor.Float // per-worker shaped-view staging for lane chunks
}

// New builds an engine with the given worker count (< 1 means one per
// available CPU).
func New(m *bnn.Model, workers int) *Engine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers: workers,
		proto:   m,
		models:  make([]*bnn.Model, workers),
		chunks:  make([][]*tensor.Float, workers),
	}
}

// model returns worker w's clone, creating it on first use. Only
// worker w touches index w during a batch, and batches are serialized,
// so no further synchronization is needed.
func (e *Engine) model(w int) *bnn.Model {
	if e.models[w] == nil {
		e.models[w] = e.proto.CloneShared()
	}
	return e.models[w]
}

// inputSize returns the element count of one model input.
func (e *Engine) inputSize() int {
	n := 1
	for _, d := range e.proto.InputShape {
		n *= d
	}
	return n
}

// checkBatch validates a batch of (possibly untrusted) inputs against
// the model's input shape before any layer touches them: every tensor
// must either match the shape exactly or be a flat vector of the right
// size (shaped requests and the wire format of the serving front end,
// respectively). A mismatch is a clear error, never a deep panic inside
// a layer's forward pass.
func (e *Engine) checkBatch(xs []*tensor.Float) error {
	want := e.proto.InputShape
	size := e.inputSize()
	for i, x := range xs {
		if x == nil {
			return fmt.Errorf("infer: input %d is nil", i)
		}
		if x.Size() != size {
			return fmt.Errorf("infer: input %d has %d elements, model %q wants shape %v (%d elements)",
				i, x.Size(), e.proto.Name(), want, size)
		}
		if x.Dims() == 1 || x.Dims() == len(want) {
			ok := x.Dims() == 1
			if !ok {
				ok = true
				for d, w := range want {
					if x.Dim(d) != w {
						ok = false
						break
					}
				}
			}
			if ok {
				continue
			}
		}
		return fmt.Errorf("infer: input %d has shape %v, model %q wants %v (or a flat vector of %d)",
			i, x.Shape(), e.proto.Name(), want, size)
	}
	return nil
}

// shaped returns x in the model's input shape (a view — no copy).
func (e *Engine) shaped(x *tensor.Float) *tensor.Float {
	if x.Dims() != len(e.proto.InputShape) {
		return x.Reshape(e.proto.InputShape...)
	}
	return x
}

// chunk returns worker w's shaped-view staging slice, holding the
// shaped inputs of one lane chunk (capacity one lane word).
func (e *Engine) chunk(w int) []*tensor.Float {
	if e.chunks[w] == nil {
		e.chunks[w] = make([]*tensor.Float, 0, tensor.LaneWidth)
	}
	return e.chunks[w][:0]
}

// InferBatch runs the forward pass for every input and returns the
// logits in input order. Inputs are shape-checked up front (flat
// vectors of the right size are accepted and reshaped), so malformed
// batches fail with an error instead of panicking mid-layer. The batch
// is chunked into LaneWidth-sample words that run the bit-parallel
// batch path; chunking is by index, so results are bit-identical to
// per-sample inference at any worker count. Each result is a fresh
// tensor (cloned out of the worker's scratch), safe to retain.
func (e *Engine) InferBatch(xs []*tensor.Float) ([]*tensor.Float, error) {
	if err := e.checkBatch(xs); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*tensor.Float, len(xs))
	err := e.runChunks(xs, func(lo int, ys []*tensor.Float) {
		for i, y := range ys {
			out[lo+i] = y.Clone()
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatch returns the argmax class for every input, in input
// order, with the same shape validation and lane chunking as
// InferBatch.
func (e *Engine) PredictBatch(xs []*tensor.Float) ([]int, error) {
	if err := e.checkBatch(xs); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]int, len(xs))
	err := e.runChunks(xs, func(lo int, ys []*tensor.Float) {
		for i, y := range ys {
			out[lo+i] = y.ArgMax()
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runChunks fans LaneWidth-sample chunks of xs over the pool and hands
// each chunk's logits (worker-owned scratch, valid only inside the
// callback) to sink with the chunk's base index. Chunk boundaries
// depend only on len(xs) and each chunk runs serially inside one
// worker, so results are deterministic at any worker count.
func (e *Engine) runChunks(xs []*tensor.Float, sink func(lo int, ys []*tensor.Float)) error {
	n := len(xs)
	chunks := (n + tensor.LaneWidth - 1) / tensor.LaneWidth
	_, err := Map(e.workers, chunks, func(w, ci int) (struct{}, error) {
		lo := ci * tensor.LaneWidth
		hi := lo + tensor.LaneWidth
		if hi > n {
			hi = n
		}
		m := e.model(w)
		if hi-lo == 1 {
			// A lone sample runs the per-sample reference: the batch
			// path matches it on the MLPs, but the CNNs' binary
			// convolutions gather a word per patch element whatever the
			// lane count, which costs 2.3× Infer at one lane.
			y := m.Infer(e.shaped(xs[lo]))
			sink(lo, []*tensor.Float{y})
			return struct{}{}, nil
		}
		chunk := e.chunk(w)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, e.shaped(xs[i]))
		}
		sink(lo, m.InferBatchBits(chunk))
		return struct{}{}, nil
	})
	return err
}
