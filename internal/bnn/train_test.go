package bnn

import (
	"testing"

	"einsteinbarrier/internal/dataset"
)

func TestNewTrainerValidation(t *testing.T) {
	if _, err := NewTrainer(TrainerConfig{Sizes: []int{4, 2}}); err == nil {
		t.Fatal("expected error for too few layers")
	}
	if _, err := NewTrainer(TrainerConfig{Sizes: []int{4, 0, 2}}); err == nil {
		t.Fatal("expected error for zero-width layer")
	}
}

func TestTrainEpochErrors(t *testing.T) {
	tr, err := NewTrainer(TrainerConfig{Sizes: []int{4, 8, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TrainEpoch(nil, nil); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := tr.TrainEpoch([][]float64{{1, 2}}, []int{0}); err == nil {
		t.Fatal("expected error for wrong feature count")
	}
}

// TestTrainerLearnsSyntheticDigits is the end-to-end learning check:
// an STE-trained BNN must reach high accuracy on the synthetic digit
// task, demonstrating the training substrate works (paper §II-B).
func TestTrainerLearnsSyntheticDigits(t *testing.T) {
	samples := dataset.Digits(600, 42)
	train, test, err := dataset.Split(samples, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := dataset.Flatten(train)
	txs, tys := dataset.Flatten(test)

	tr, err := NewTrainer(TrainerConfig{Sizes: []int{784, 64, 64, 10}, LR: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var loss float64
	for epoch := 0; epoch < 12; epoch++ {
		loss, err = tr.TrainEpoch(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
	}
	acc := tr.Accuracy(txs, tys)
	if acc < 0.85 {
		t.Fatalf("test accuracy %.2f < 0.85 (final loss %.3f)", acc, loss)
	}
}

// TestExportedModelMatchesTrainer verifies that the frozen inference
// Model agrees with the trainer's own binarized forward pass.
func TestExportedModelMatchesTrainer(t *testing.T) {
	samples := dataset.Digits(200, 43)
	xs, ys := dataset.Flatten(samples)
	tr, err := NewTrainer(TrainerConfig{Sizes: []int{784, 48, 48, 10}, LR: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 6; epoch++ {
		if _, err := tr.TrainEpoch(xs, ys); err != nil {
			t.Fatal(err)
		}
	}
	model := tr.Export("digit-mlp")
	if err := model.Validate(); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i, s := range samples {
		if model.Predict(s.X.Reshape(784)) == labelOfTrainer(tr, xs[i]) {
			agree++
		}
	}
	if frac := float64(agree) / float64(len(samples)); frac < 0.98 {
		t.Fatalf("exported model agrees with trainer on only %.2f of samples", frac)
	}
	_ = ys
}

func labelOfTrainer(tr *Trainer, x []float64) int {
	zs, _ := tr.forward(x)
	logits := zs[tr.nLayers()-1]
	best, bi := logits[0], 0
	for j, v := range logits {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

func TestExportedModelHasBinaryHidden(t *testing.T) {
	tr, _ := NewTrainer(TrainerConfig{Sizes: []int{16, 8, 8, 4}, Seed: 1})
	m := tr.Export("x")
	wls := m.binaryWorkloads()
	if len(wls) != 1 {
		t.Fatalf("expected 1 binary layer, got %d", len(wls))
	}
	if wls[0].N != 8 || wls[0].M != 8 {
		t.Fatalf("binary workload = %+v", wls[0])
	}
}
