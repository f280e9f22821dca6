package bnn

import (
	"math/rand"
	"sync"
	"testing"

	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/tensor"
)

func randomDense(rng *rand.Rand, out, in int) *BinaryDense {
	w := bitops.NewMatrix(out, in)
	th := make([]int, out)
	for r := 0; r < out; r++ {
		for c := 0; c < in; c++ {
			w.Set(r, c, rng.Intn(2) == 1)
		}
		th[r] = rng.Intn(7) - 3
	}
	return &BinaryDense{LayerName: "bd", W: w, Thresh: th}
}

// TestBinaryDenseForwardZeroAllocs is the steady-state allocation
// regression test for the scratch-buffer forward path.
func TestBinaryDenseForwardZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	l := randomDense(rng, 128, 512)
	x := tensor.NewFloat(512)
	for i := range x.Data() {
		x.Data()[i] = rng.NormFloat64()
	}
	l.Forward(x) // warm the scratch buffers
	if avg := testing.AllocsPerRun(100, func() {
		l.Forward(x)
	}); avg != 0 {
		t.Fatalf("BinaryDense.Forward allocates %.1f objects per run, want 0", avg)
	}
}

// TestModelInferSteadyStateAllocs checks the whole MLP forward chain
// stops allocating per layer once every layer's scratch is warm.
func TestModelInferSteadyStateAllocs(t *testing.T) {
	m, err := NewModel("MLP-S", 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewFloat(784)
	rng := rand.New(rand.NewSource(32))
	for i := range x.Data() {
		x.Data()[i] = rng.Float64()
	}
	m.Infer(x)
	if avg := testing.AllocsPerRun(50, func() {
		m.Infer(x)
	}); avg != 0 {
		t.Fatalf("Model.Infer allocates %.1f objects per run in steady state, want 0", avg)
	}
}

// TestForwardScratchReuseKeepsResultsCorrect runs the same layer over
// distinct inputs and checks each call's result against an
// independently computed reference, so buffer reuse cannot leak state
// between calls.
func TestForwardScratchReuseKeepsResultsCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	l := randomDense(rng, 9, 40)
	for trial := 0; trial < 20; trial++ {
		x := tensor.NewFloat(40)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		got := l.Forward(x)
		xb := bitops.FromFloats(x.Data())
		dots := l.W.BipolarMatVecInto(xb, nil)
		for o, d := range dots {
			want := -1.0
			if d >= l.Thresh[o] {
				want = 1
			}
			if got.Data()[o] != want {
				t.Fatalf("trial %d output %d: got %v, want %v", trial, o, got.Data()[o], want)
			}
		}
	}
}

// TestCloneSharedMatchesOriginal checks a shared-weight clone produces
// bit-identical logits, including for conv models, and that clones on
// separate goroutines agree with serial execution.
func TestCloneSharedMatchesOriginal(t *testing.T) {
	for _, name := range []string{"MLP-S", "CNN-S"} {
		m, err := NewModel(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(34))
		inputs := make([]*tensor.Float, 8)
		for i := range inputs {
			inputs[i] = tensor.NewFloat(m.InputShape...)
			for j := range inputs[i].Data() {
				inputs[i].Data()[j] = rng.NormFloat64()
			}
		}
		// Serial reference on the original model.
		want := make([][]float64, len(inputs))
		for i, x := range inputs {
			want[i] = append([]float64(nil), m.Infer(x).Data()...)
		}
		// Each goroutine gets its own clone and a disjoint input share.
		var wg sync.WaitGroup
		got := make([][]float64, len(inputs))
		for w := 0; w < 4; w++ {
			clone := m.CloneShared()
			wg.Add(1)
			go func(w int, cm *Model) {
				defer wg.Done()
				for i := w; i < len(inputs); i += 4 {
					got[i] = append([]float64(nil), cm.Infer(inputs[i]).Data()...)
				}
			}(w, clone)
		}
		wg.Wait()
		for i := range inputs {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s input %d logit %d: clone %v != serial %v",
						name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestFlattenAliasForward checks the no-copy Flatten view reflects the
// input data and shape.
func TestFlattenAliasForward(t *testing.T) {
	f := &Flatten{LayerName: "fl"}
	x := tensor.NewFloat(2, 3)
	for i := range x.Data() {
		x.Data()[i] = float64(i)
	}
	y := f.Forward(x)
	if y.Dims() != 1 || y.Dim(0) != 6 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	for i, v := range y.Data() {
		if v != float64(i) {
			t.Fatalf("flatten data[%d] = %v", i, v)
		}
	}
}
