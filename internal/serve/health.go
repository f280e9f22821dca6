package serve

import (
	"fmt"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/tensor"
)

// Canary-based replica health. A CanarySet is a small fixed labeled
// probe stream; the lifetime loop plays it through each hardware
// replica on a period and watches the windowed accuracy. The labels are
// the *software* model's own predictions over the same inputs, so a
// fresh replica at an agreement-preserving device corner scores exactly
// 1.0 and any decay is attributable to device physics, not model
// quality — the canary determinism contract (see DESIGN.md).

// CanarySet is an immutable labeled probe set. Safe for concurrent
// Evaluate calls: the inputs are only ever read, and each call owns its
// own output scratch.
type CanarySet struct {
	inputs []*tensor.Float
	want   []int
}

// NewCanarySet labels the inputs with the software model's predictions
// (reshaping flat vectors to the model's input shape).
func NewCanarySet(model *bnn.Model, inputs []*tensor.Float) (*CanarySet, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: canary set needs a model")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("serve: canary set needs at least one input")
	}
	size := 1
	for _, d := range model.InputShape {
		size *= d
	}
	c := &CanarySet{
		inputs: make([]*tensor.Float, len(inputs)),
		want:   make([]int, len(inputs)),
	}
	for i, x := range inputs {
		if x == nil || x.Size() != size {
			return nil, fmt.Errorf("serve: canary input %d has %d elements, model wants %d", i, x.Size(), size)
		}
		if x.Dims() != len(model.InputShape) {
			x = x.Reshape(model.InputShape...)
		}
		c.inputs[i] = x
		c.want[i] = model.Predict(x.Clone())
	}
	return c, nil
}

// Evaluate plays the probe set through the replica and returns the
// fraction of predictions matching the software labels.
func (c *CanarySet) Evaluate(rep Replica) (float64, error) {
	preds := make([]Prediction, len(c.inputs))
	if err := rep.RunBatch(c.inputs, preds); err != nil {
		return 0, err
	}
	match := 0
	for i, p := range preds {
		if p.Class == c.want[i] {
			match++
		}
	}
	return float64(match) / float64(len(c.inputs)), nil
}

// healthWindow is one replica's canary accuracy tracker with
// flap-proof hysteresis: the replica is flagged only after FlagAfter
// *consecutive* below-floor canary passes, and once flagged it stays
// flagged until the lifecycle resets it after recalibration — a single
// recovered pass can neither unflag a degrading replica nor can a
// single bad pass flag a healthy one.
type healthWindow struct {
	floor     float64
	window    int
	flagAfter int

	recent  []float64 // ring buffer of the last `window` accuracies
	n       int64     // total observations
	last    float64
	below   int // consecutive below-floor passes
	flagged bool
}

func newHealthWindow(floor float64, window, flagAfter int) *healthWindow {
	return &healthWindow{floor: floor, window: window, flagAfter: flagAfter,
		recent: make([]float64, 0, window)}
}

// observe folds one canary accuracy in and reports the flagged state.
func (h *healthWindow) observe(acc float64) bool {
	if len(h.recent) < h.window {
		h.recent = append(h.recent, acc)
	} else {
		h.recent[h.n%int64(h.window)] = acc
	}
	h.n++
	h.last = acc
	if acc < h.floor {
		h.below++
	} else {
		h.below = 0
	}
	if h.below >= h.flagAfter {
		h.flagged = true
	}
	return h.flagged
}

// mean is the windowed accuracy estimate (1.0 before any observation —
// a replica is presumed healthy until probed).
func (h *healthWindow) mean() float64 {
	if len(h.recent) == 0 {
		return 1
	}
	sum := 0.0
	for _, a := range h.recent {
		sum += a
	}
	return sum / float64(len(h.recent))
}

// reset clears the window after recalibration: the replica starts a
// fresh health history.
func (h *healthWindow) reset() {
	h.recent = h.recent[:0]
	h.below = 0
	h.flagged = false
}
