package dataset

import (
	"testing"
)

func TestDigitsShapeAndDeterminism(t *testing.T) {
	a := Digits(50, 7)
	b := Digits(50, 7)
	if len(a) != 50 {
		t.Fatalf("got %d samples", len(a))
	}
	for i := range a {
		sh := a[i].X.Shape()
		if len(sh) != 3 || sh[0] != 1 || sh[1] != 28 || sh[2] != 28 {
			t.Fatalf("digit shape = %v", sh)
		}
		if a[i].Label < 0 || a[i].Label >= Classes {
			t.Fatalf("label %d out of range", a[i].Label)
		}
		if a[i].Label != b[i].Label {
			t.Fatal("not deterministic")
		}
		for j := range a[i].X.Data() {
			if a[i].X.Data()[j] != b[i].X.Data()[j] {
				t.Fatal("pixel data not deterministic")
			}
			if v := a[i].X.Data()[j]; v < 0 || v > 1 {
				t.Fatalf("pixel %g outside [0,1]", v)
			}
		}
	}
}

func TestDigitsCoverAllClasses(t *testing.T) {
	seen := make(map[int]bool)
	for _, s := range Digits(400, 1) {
		seen[s.Label] = true
	}
	if len(seen) != Classes {
		t.Fatalf("only %d classes seen in 400 samples", len(seen))
	}
}

func TestDigitsClassesAreDistinct(t *testing.T) {
	// Mean images of different classes must differ substantially —
	// otherwise the dataset carries no signal.
	samples := Digits(500, 3)
	means := make([][]float64, Classes)
	counts := make([]int, Classes)
	for _, s := range samples {
		if means[s.Label] == nil {
			means[s.Label] = make([]float64, s.X.Size())
		}
		for j, v := range s.X.Data() {
			means[s.Label][j] += v
		}
		counts[s.Label]++
	}
	for a := 0; a < Classes; a++ {
		for b := a + 1; b < Classes; b++ {
			if counts[a] == 0 || counts[b] == 0 {
				continue
			}
			var dist float64
			for j := range means[a] {
				d := means[a][j]/float64(counts[a]) - means[b][j]/float64(counts[b])
				dist += d * d
			}
			if dist < 0.5 {
				t.Fatalf("classes %d and %d nearly identical (dist %g)", a, b, dist)
			}
		}
	}
}

func TestFlatten(t *testing.T) {
	samples := Digits(5, 1)
	xs, ys := Flatten(samples)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatal("flatten sizes wrong")
	}
	if len(xs[0]) != 784 {
		t.Fatalf("feature length = %d", len(xs[0]))
	}
	// Mutating the flattened copy must not touch the sample.
	orig := samples[0].X.Data()[0]
	xs[0][0] = 42
	if samples[0].X.Data()[0] != orig {
		t.Fatal("Flatten did not copy")
	}
}

func TestSplit(t *testing.T) {
	samples := Digits(10, 1)
	train, test, err := Split(samples, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(train) != 8 || len(test) != 2 {
		t.Fatalf("split = %d/%d", len(train), len(test))
	}
	if _, _, err := Split(samples, 0); err == nil {
		t.Fatal("expected error for frac 0")
	}
	if _, _, err := Split(samples[:1], 0.5); err == nil {
		t.Fatal("expected error for empty side")
	}
}
