// Package dataset provides deterministic synthetic stand-ins for the
// MNIST and CIFAR-10 datasets used in the paper's evaluation. The real
// datasets are not available offline; these generators produce
// classification problems with the same tensor shapes (1×28×28
// grayscale digits, 3×32×32 color textures) and enough class structure
// for the training/accuracy demos, while the latency/energy evaluation
// depends only on the shapes (see DESIGN.md substitution table).
package dataset

import (
	"fmt"
	"math/rand"

	"einsteinbarrier/internal/tensor"
)

// Sample is one labeled example.
type Sample struct {
	// X is the input tensor (1×28×28 for digits, 3×32×32 for textures).
	X *tensor.Float
	// Label is the class index in [0, Classes).
	Label int
}

// Classes is the number of classes both generators produce.
const Classes = 10

// digitGlyphs are 5×7 bitmaps of the digits 0–9 (row-major, '#' = ink),
// the structural seed the MNIST-like generator perturbs.
var digitGlyphs = [Classes][7]string{
	{"#####", "#...#", "#...#", "#...#", "#...#", "#...#", "#####"}, // 0
	{"..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."}, // 1
	{"#####", "....#", "....#", "#####", "#....", "#....", "#####"}, // 2
	{"#####", "....#", "....#", ".####", "....#", "....#", "#####"}, // 3
	{"#...#", "#...#", "#...#", "#####", "....#", "....#", "....#"}, // 4
	{"#####", "#....", "#....", "#####", "....#", "....#", "#####"}, // 5
	{"#####", "#....", "#....", "#####", "#...#", "#...#", "#####"}, // 6
	{"#####", "....#", "...#.", "..#..", "..#..", "..#..", "..#.."}, // 7
	{"#####", "#...#", "#...#", "#####", "#...#", "#...#", "#####"}, // 8
	{"#####", "#...#", "#...#", "#####", "....#", "....#", "#####"}, // 9
}

// Digits generates n MNIST-like 1×28×28 samples: each is a digit glyph
// scaled 3×, randomly translated by up to ±3 pixels, with per-pixel
// amplitude jitter and background noise. Deterministic in seed.
func Digits(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		label := rng.Intn(Classes)
		x := tensor.NewFloat(1, 28, 28)
		// Background noise.
		for j := range x.Data() {
			x.Data()[j] = rng.Float64() * 0.1
		}
		dx := rng.Intn(7) - 3
		dy := rng.Intn(7) - 3
		amp := 0.7 + rng.Float64()*0.3
		glyph := digitGlyphs[label]
		for gr := 0; gr < 7; gr++ {
			for gc := 0; gc < 5; gc++ {
				if glyph[gr][gc] != '#' {
					continue
				}
				for sr := 0; sr < 3; sr++ {
					for sc := 0; sc < 3; sc++ {
						r := 3 + gr*3 + sr + dy
						c := 6 + gc*3 + sc + dx
						if r >= 0 && r < 28 && c >= 0 && c < 28 {
							v := amp * (0.8 + rng.Float64()*0.2)
							x.Set(v, 0, r, c)
						}
					}
				}
			}
		}
		out[i] = Sample{X: x, Label: label}
	}
	return out
}

// Flatten converts samples to flat feature vectors plus labels, the
// format the MLP trainer consumes.
func Flatten(samples []Sample) ([][]float64, []int) {
	xs := make([][]float64, len(samples))
	ys := make([]int, len(samples))
	for i, s := range samples {
		d := s.X.Data()
		xs[i] = make([]float64, len(d))
		copy(xs[i], d)
		ys[i] = s.Label
	}
	return xs, ys
}

// Split partitions samples into train/test at the given ratio.
func Split(samples []Sample, trainFrac float64) (train, test []Sample, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac %g outside (0,1)", trainFrac)
	}
	k := int(float64(len(samples)) * trainFrac)
	if k == 0 || k == len(samples) {
		return nil, nil, fmt.Errorf("dataset: split of %d samples at %g leaves an empty side", len(samples), trainFrac)
	}
	return samples[:k], samples[k:], nil
}
