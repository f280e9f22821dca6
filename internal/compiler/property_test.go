package compiler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bitops"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/isa"
	"einsteinbarrier/internal/tensor"
)

// randomMLP builds a random-width valid MLP model for property tests.
func randomMLP(rng *rand.Rand) *bnn.Model {
	in := 16 + rng.Intn(200)
	h1 := 8 + rng.Intn(300)
	h2 := 8 + rng.Intn(300)
	classes := 2 + rng.Intn(20)
	w0 := tensor.NewFloat(h1, in)
	wOut := tensor.NewFloat(classes, h2)
	return &bnn.Model{
		ModelName:  "random-mlp",
		InputShape: []int{in},
		Classes:    classes,
		Layers: []bnn.Layer{
			&bnn.DenseFP{LayerName: "fc0", W: w0, B: make([]float64, h1)},
			&bnn.Sign{LayerName: "sign"},
			&bnn.BinaryDense{LayerName: "bin0", W: bitops.NewMatrix(h2, h1), Thresh: make([]int, h2)},
			&bnn.DenseFP{LayerName: "out", W: wOut, B: make([]float64, classes)},
		},
	}
}

// TestCompileProperty: any valid random MLP compiles to a valid,
// HALT-terminated program on every design, with consistent allocation
// and the design-appropriate opcode mix.
func TestCompileProperty(t *testing.T) {
	cfg := arch.DefaultConfig()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model := randomMLP(rng)
		if model.Validate() != nil {
			return false
		}
		for _, d := range []arch.Design{arch.BaselineEPCM, arch.TacitEPCM, arch.EinsteinBarrier} {
			c, err := Compile(model, cfg, d)
			if err != nil {
				return false
			}
			if c.Program.Validate() != nil {
				return false
			}
			if len(c.Allocs) != len(model.Layers) || c.VCoresUsed < 1 {
				return false
			}
			// Opcode mix discipline.
			for _, in := range c.Program {
				switch {
				case in.Op == isa.OpMVM && d != arch.TacitEPCM:
					return false
				case in.Op == isa.OpMMM && d != arch.EinsteinBarrier:
					return false
				case in.Op == isa.OpRowStep && d != arch.BaselineEPCM:
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
