package serve

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/robust"
	"einsteinbarrier/internal/tensor"
)

// defaultHardwareCorner is the default ePCM device corner.
func defaultHardwareCorner() robust.Config { return robust.DefaultConfig(device.EPCM) }

// testInputs builds n seeded shaped inputs for a model.
func testInputs(t testing.TB, m *bnn.Model, n int, seed int64) []*tensor.Float {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Float, n)
	for i := range xs {
		xs[i] = tensor.NewFloat(m.InputShape...)
		for j := range xs[i].Data() {
			xs[i].Data()[j] = rng.NormFloat64()
		}
	}
	return xs
}

func zooModel(t testing.TB, name string) *bnn.Model {
	t.Helper()
	m, err := bnn.NewModel(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBatcherDeterministicBoundaries is the determinism pin: requests
// enqueued before Start are served in enqueue order in full MaxBatch
// batches, every reply carries the predicted batch seq/size, and the
// logits are bit-identical to serial Model.Infer. Two runs produce the
// identical assignment.
func TestBatcherDeterministicBoundaries(t *testing.T) {
	model := zooModel(t, "MLP-S")
	xs := testInputs(t, model, 24, 42)

	// Serial reference on a scratch-isolated clone.
	serial := model.CloneShared()
	wantLogits := make([][]float64, len(xs))
	for i, x := range xs {
		wantLogits[i] = append([]float64(nil), serial.Infer(x).Data()...)
	}

	const maxBatch = 8
	runOnce := func() []Result {
		backend, err := NewSoftwareBackend(model, 2)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Backend:  backend,
			MaxBatch: maxBatch,
			MaxWait:  time.Hour,
			QueueCap: len(xs),
			Workers:  1,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans := make([]<-chan Reply, len(xs))
		for i, x := range xs {
			ch, err := s.SubmitAsync(x)
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			chans[i] = ch
		}
		s.Start()
		out := make([]Result, len(xs))
		for i, ch := range chans {
			rep := <-ch
			if rep.Err != nil {
				t.Fatalf("reply %d: %v", i, rep.Err)
			}
			out[i] = rep.Result
		}
		s.Stop()
		return out
	}

	first := runOnce()
	for i, r := range first {
		if r.BatchSize != maxBatch {
			t.Fatalf("request %d: batch size %d, want %d", i, r.BatchSize, maxBatch)
		}
		if want := int64(i / maxBatch); r.BatchSeq != want {
			t.Fatalf("request %d: batch seq %d, want %d", i, r.BatchSeq, want)
		}
		if len(r.Logits) != len(wantLogits[i]) {
			t.Fatalf("request %d: %d logits, want %d", i, len(r.Logits), len(wantLogits[i]))
		}
		for j := range r.Logits {
			if r.Logits[j] != wantLogits[i][j] {
				t.Fatalf("request %d logit %d: batched %v != serial %v",
					i, j, r.Logits[j], wantLogits[i][j])
			}
		}
	}
	second := runOnce()
	for i := range first {
		if first[i].BatchSeq != second[i].BatchSeq || first[i].BatchSize != second[i].BatchSize ||
			first[i].Class != second[i].Class {
			t.Fatalf("request %d: run 1 (seq %d size %d class %d) != run 2 (seq %d size %d class %d)",
				i, first[i].BatchSeq, first[i].BatchSize, first[i].Class,
				second[i].BatchSeq, second[i].BatchSize, second[i].Class)
		}
	}
}

// TestMaxWaitFlushesPartialBatch: with MaxBatch far above the offered
// load, the MaxWait deadline — not the size cap — dispatches the batch.
func TestMaxWaitFlushesPartialBatch(t *testing.T) {
	model := zooModel(t, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: backend, MaxBatch: 64, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	xs := testInputs(t, model, 3, 7)
	chans := make([]<-chan Reply, len(xs))
	for i, x := range xs {
		ch, err := s.SubmitAsync(x)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	s.Start()
	for i, ch := range chans {
		rep := <-ch
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		if rep.Result.BatchSize != len(xs) || rep.Result.BatchSeq != 0 {
			t.Fatalf("request %d: batch size %d seq %d, want size %d seq 0",
				i, rep.Result.BatchSize, rep.Result.BatchSeq, len(xs))
		}
	}
	s.Stop()
	if st := s.Stats(); st.Batches != 1 || st.MeanBatch != float64(len(xs)) {
		t.Fatalf("stats: %d batches mean %v, want 1 batch of %d", st.Batches, st.MeanBatch, len(xs))
	}
}

// blockingBackend parks every RunBatch on a gate, so tests can hold the
// pipeline full and observe admission control deterministically.
type blockingBackend struct {
	gate    chan struct{}
	started chan struct{}
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{gate: make(chan struct{}), started: make(chan struct{}, 128)}
}

func (b *blockingBackend) Name() string      { return "test/blocking" }
func (b *blockingBackend) InputShape() []int { return []int{4} }
func (b *blockingBackend) NewReplica() (Replica, error) {
	return blockingReplica{b}, nil
}

type blockingReplica struct{ b *blockingBackend }

func (r blockingReplica) RunBatch(xs []*tensor.Float, out []Prediction) error {
	r.b.started <- struct{}{}
	<-r.b.gate
	for i := range out {
		out[i] = Prediction{Class: i, Logits: []float64{1}}
	}
	return nil
}

// TestSheddingEngagesUnderOverload pins the admission-control contract:
// with the worker wedged, the system holds at most 1 (in service) + 1
// (batcher hand) + QueueCap requests; everything beyond sheds with
// ErrOverloaded, and accepted requests still complete with finite
// latency once the backend recovers — overload degrades throughput,
// never latency correctness.
func TestSheddingEngagesUnderOverload(t *testing.T) {
	backend := newBlockingBackend()
	const queueCap = 4
	s, err := New(Config{Backend: backend, MaxBatch: 1, MaxWait: time.Hour, QueueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	x := tensor.NewFloat(4)

	ch0, err := s.SubmitAsync(x)
	if err != nil {
		t.Fatal(err)
	}
	<-backend.started // request 0 is in service and wedged

	var chans []<-chan Reply
	shed := 0
	for i := 0; i < 20; i++ {
		ch, err := s.SubmitAsync(x)
		switch {
		case err == nil:
			chans = append(chans, ch)
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("submit %d: unexpected error %v", i, err)
		}
		time.Sleep(200 * time.Microsecond) // let the batcher drain its hand
	}
	// Capacity beyond the in-service request: batcher hand + queue.
	if len(chans) > 1+queueCap {
		t.Fatalf("accepted %d requests beyond service, capacity is %d", len(chans), 1+queueCap)
	}
	if shed < 14 {
		t.Fatalf("shed %d of 20, want ≥ 14", shed)
	}
	if st := s.Stats(); st.Shed != int64(shed) || st.ShedRate <= 0 {
		t.Fatalf("stats shed %d rate %v, want %d and > 0", st.Shed, st.ShedRate, shed)
	}

	close(backend.gate) // recover
	if rep := <-ch0; rep.Err != nil {
		t.Fatal(rep.Err)
	}
	for i, ch := range chans {
		rep := <-ch
		if rep.Err != nil {
			t.Fatalf("accepted request %d failed after recovery: %v", i, rep.Err)
		}
		if rep.Result.LatencyNs <= 0 {
			t.Fatalf("accepted request %d: non-positive latency", i)
		}
	}
	s.Stop()
	st := s.Stats()
	if want := int64(1 + len(chans)); st.Completed != want {
		t.Fatalf("completed %d, want %d", st.Completed, want)
	}
	if st.Latency.P99 <= 0 || st.Latency.Max < st.Latency.P99 {
		t.Fatalf("latency block inconsistent: %+v", st.Latency)
	}
}

// TestSubmitValidationAndClose: malformed inputs are rejected with a
// clear error (and counted), and a stopped server refuses service.
func TestSubmitValidationAndClose(t *testing.T) {
	model := zooModel(t, "MLP-S")
	backend, err := NewSoftwareBackend(model, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: backend, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if _, err := s.SubmitAsync(nil); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := s.SubmitAsync(tensor.NewFloat(3)); err == nil {
		t.Fatal("wrong-size input accepted")
	}
	// Right element count, wrong rank: must be rejected at admission,
	// before it can reach (and poison or crash) a backend batch.
	if _, err := s.SubmitAsync(tensor.NewFloat(28, 28)); err == nil {
		t.Fatal("wrong-rank input accepted")
	}
	if st := s.Stats(); st.Rejected != 3 {
		t.Fatalf("rejected = %d, want 3", st.Rejected)
	}
	if _, err := s.submit(testInputs(t, model, 1, 1)[0]); err != nil {
		t.Fatal(err)
	}
	s.Stop()
	if _, err := s.submit(testInputs(t, model, 1, 1)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after stop: %v, want ErrClosed", err)
	}
}

// panicBackend panics on every batch — a worst-case buggy backend.
type panicBackend struct{}

func (panicBackend) Name() string      { return "test/panic" }
func (panicBackend) InputShape() []int { return []int{4} }
func (panicBackend) NewReplica() (Replica, error) {
	return panicReplica{}, nil
}

type panicReplica struct{}

func (panicReplica) RunBatch([]*tensor.Float, []Prediction) error { panic("kaboom") }

// TestBackendPanicFailsBatchNotServer: a replica panic becomes the
// batch's error; the server keeps serving subsequent requests.
func TestBackendPanicFailsBatchNotServer(t *testing.T) {
	s, err := New(Config{Backend: panicBackend{}, MaxBatch: 2, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	for i := 0; i < 3; i++ {
		_, err := s.submit(tensor.NewFloat(4))
		if err == nil || !strings.Contains(err.Error(), "backend panic") {
			t.Fatalf("request %d: err = %v, want backend panic error", i, err)
		}
	}
	if st := s.Stats(); st.Failed != 3 || st.Completed != 0 {
		t.Fatalf("failed %d completed %d, want 3/0", st.Failed, st.Completed)
	}
}

// TestHardwareBackendServesAndAgreesWithSoftware: the hardware-in-the-
// loop backend serves requests whose predictions match the software
// path at the default device corner (§V-C: the designs do not affect
// accuracy).
func TestHardwareBackendServesAndAgreesWithSoftware(t *testing.T) {
	model := zooModel(t, "MLP-S")
	hw, err := NewHardwareBackend(model, defaultHardwareCorner())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Backend: hw, MaxBatch: 4, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Stop()
	serial := model.CloneShared()
	for i, x := range testInputs(t, model, 6, 9) {
		res, err := s.submit(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := serial.Predict(x); res.Class != want {
			t.Fatalf("sample %d: hardware served class %d, software %d", i, res.Class, want)
		}
	}
}
