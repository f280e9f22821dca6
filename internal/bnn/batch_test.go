package bnn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"einsteinbarrier/internal/tensor"
)

func zooInputs(t testing.TB, m *Model, n int, seed int64) []*tensor.Float {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*tensor.Float, n)
	for i := range out {
		x := tensor.NewFloat(m.InputShape...)
		for j := range x.Data() {
			x.Data()[j] = rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

// checkBatchMatches runs one InferBatchBits call on n fresh inputs and
// requires every logit to equal the per-sample reference bit for bit.
func checkBatchMatches(t *testing.T, m, ref *Model, n int, seed int64) {
	t.Helper()
	xs := zooInputs(t, m, n, seed)
	got := m.InferBatchBits(xs)
	if len(got) != n {
		t.Fatalf("batch %d returned %d logits", n, len(got))
	}
	for s, x := range xs {
		want := ref.Infer(x)
		if !want.SameShape(got[s]) {
			t.Fatalf("batch %d sample %d: shape %v, want %v", n, s, got[s].Shape(), want.Shape())
		}
		for i, v := range want.Data() {
			if math.Float64bits(got[s].Data()[i]) != math.Float64bits(v) {
				t.Fatalf("batch %d sample %d logit %d: batch %v, serial %v",
					n, s, i, got[s].Data()[i], v)
			}
		}
	}
}

// TestInferBatchBitsMatchesInfer pins the tentpole equivalence: for
// every zoo network and batch sizes on both sides of every lane-group
// boundary (the float kernels work in groups of 8 lanes), the
// batch-major bit-parallel path reproduces the per-sample reference
// logits bit for bit.
func TestInferBatchBitsMatchesInfer(t *testing.T) {
	for _, name := range ZooNames {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := NewModel(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref := m.CloneShared() // independent scratch for the serial path
			sizes := []int{1, 2, 5, 7, 8, 9, 15, 16, 17, 63, 64}
			if testing.Short() {
				sizes = []int{3}
			}
			for _, n := range sizes {
				checkBatchMatches(t, m, ref, n, int64(100+n))
			}
		})
	}
}

// TestInferBatchBitsReusesScratch pins that consecutive calls —
// shrinking and regrowing the batch — stay correct while reusing
// model-owned scratch. After a full word, a narrower call sees dead
// lanes holding the previous batch's activations, both inside its
// 8-lane span and above it; none may reach a live logit.
func TestInferBatchBitsReusesScratch(t *testing.T) {
	for _, name := range []string{"MLP-S", "CNN-S"} {
		m, err := NewModel(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		ref := m.CloneShared()
		for trial, n := range []int{64, 5, 64, 1, 17, 64, 2} {
			checkBatchMatches(t, m, ref, n, int64(trial))
		}
	}
}

// TestInferBatchBitsAllocs pins the steady-state batch path to zero
// allocations for MLP-S (every layer has a native batch path) and to a
// constant independent of batch content for CNN-S.
func TestInferBatchBitsAllocs(t *testing.T) {
	for _, name := range []string{"MLP-S", "CNN-S"} {
		m, err := NewModel(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		xs := zooInputs(t, m, 64, 7)
		m.InferBatchBits(xs) // warm scratch
		if n := testing.AllocsPerRun(5, func() { m.InferBatchBits(xs) }); n != 0 {
			t.Errorf("%s: steady-state InferBatchBits allocated %v times per run", name, n)
		}
	}
}

// TestInferBatchBitsValidates pins the batch-size and shape guards.
func TestInferBatchBitsValidates(t *testing.T) {
	m, err := NewModel("MLP-S", 1)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty batch", func() { m.InferBatchBits(nil) })
	mustPanic("oversized batch", func() { m.InferBatchBits(make([]*tensor.Float, 65)) })
	mustPanic("wrong input size", func() { m.InferBatchBits([]*tensor.Float{tensor.NewFloat(3)}) })
}

// TestCloneSharedBatchIsolated pins that clones of a batch-warmed model
// own fresh batch scratch and still match the reference.
func TestCloneSharedBatchIsolated(t *testing.T) {
	m, err := NewModel("MLP-S", 3)
	if err != nil {
		t.Fatal(err)
	}
	xs := zooInputs(t, m, 8, 1)
	m.InferBatchBits(xs) // warm the original's batch scratch
	c := m.CloneShared()
	got := c.InferBatchBits(xs)
	ref := m.CloneShared()
	for s, x := range xs {
		want := ref.Infer(x)
		for i, v := range want.Data() {
			if got[s].Data()[i] != v {
				t.Fatalf("clone sample %d logit %d: %v, want %v", s, i, got[s].Data()[i], v)
			}
		}
	}
}

func BenchmarkInferBatchBits(b *testing.B) {
	for _, name := range []string{"MLP-S", "CNN-S"} {
		m, err := NewModel(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		xs := zooInputs(b, m, 64, 9)
		serial := m.CloneShared()
		b.Run(fmt.Sprintf("%s/serial64", name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, x := range xs {
					serial.Infer(x)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/sample")
		})
		b.Run(fmt.Sprintf("%s/batch64", name), func(b *testing.B) {
			m.InferBatchBits(xs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InferBatchBits(xs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/64, "ns/sample")
		})
	}
}
