// Command robust runs the hardware-in-the-loop robustness studies: it
// trains (or synthesizes) a BNN, maps its binary layers onto simulated
// analog arrays, and sweeps device corners.
//
//	robust -sweep noise  -tech opcm   # programming-spread sweep
//	robust -sweep faults -tech epcm   # stuck-at defect sweep
//	robust -sweep drift  -tech epcm   # post-programming drift sweep
//	robust -sweep mlc                 # multi-level decode error rates
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/dataset"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/robust"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "robust:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: parses args, writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("robust", flag.ContinueOnError)
	fs.SetOutput(out)
	sweep := fs.String("sweep", "noise", "study: noise, faults, drift, mlc")
	tech := fs.String("tech", "epcm", "array technology: epcm, opcm")
	samples := fs.Int("samples", 60, "held-out samples per corner")
	epochs := fs.Int("epochs", 10, "training epochs")
	seed := fs.Int64("seed", 7, "seed")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = one per CPU, 1 = serial; results are bit-identical at any count)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *sweep == "mlc" {
		return mlcStudy(out)
	}

	var dtech device.Technology
	switch *tech {
	case "epcm":
		dtech = device.EPCM
	case "opcm":
		dtech = device.OPCM
	default:
		return fmt.Errorf("unknown -tech %q (want epcm|opcm)", *tech)
	}

	model, test, err := train(*seed, *epochs)
	if err != nil {
		return err
	}
	if len(test) > *samples {
		test = test[:*samples]
	}
	base := robust.DefaultConfig(dtech)
	base.Workers = *workers

	var points []robust.SweepPoint
	switch *sweep {
	case "noise":
		points, err = robust.NoiseSweep(model, test, base,
			[]float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4})
	case "faults":
		points, err = robust.FaultSweep(model, test, base,
			[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.2})
	case "drift":
		if dtech != device.EPCM {
			return fmt.Errorf("drift applies to ePCM arrays")
		}
		points, err = robust.DriftSweep(model, test, base,
			[]float64{0, 60, 3600, 86400, 604800})
	default:
		return fmt.Errorf("unknown -sweep %q (want noise|faults|drift|mlc)", *sweep)
	}
	if err != nil {
		return err
	}
	t := &report.Table{Cols: []report.Col{{Head: "corner"}, {Head: "sw/hw agree", Fmt: "%.1f%%"},
		{Head: "sw acc", Fmt: "%.1f%%"}, {Head: "hw acc", Fmt: "%.1f%%"}}}
	for _, p := range points {
		t.Add(p.Label, 100*p.Agreement.MatchRate(), 100*p.Agreement.SoftwareAccuracy, 100*p.Agreement.HardwareAccuracy)
	}
	return t.Text(out)
}

func train(seed int64, epochs int) (*bnn.Model, []dataset.Sample, error) {
	samples := dataset.Digits(700, seed)
	trainSet, test, err := dataset.Split(samples, 0.85)
	if err != nil {
		return nil, nil, err
	}
	xs, ys := dataset.Flatten(trainSet)
	tr, err := bnn.NewTrainer(bnn.TrainerConfig{Sizes: []int{784, 64, 64, 10}, LR: 0.01, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	for e := 0; e < epochs; e++ {
		if _, err := tr.TrainEpoch(xs, ys); err != nil {
			return nil, nil, err
		}
	}
	return tr.Export("digit-mlp"), test, nil
}

func mlcStudy(out io.Writer) error {
	t := &report.Table{Title: "Multi-level PCM decode error (the paper's §VI-C future work)",
		Cols: []report.Col{{Head: "levels"}, {Head: "analytic", Fmt: "%.6f"}, {Head: "monte-carlo", Fmt: "%.6f"}}}
	for _, l := range []int{2, 4, 8, 16, 32} {
		p := device.DefaultMLCParams(l)
		p.ProgramSigma, p.ReadNoiseSigma = 0.02, 0.005
		t.Add(l, p.AnalyticErrorRate(), p.MonteCarloErrorRate(200000, 1))
	}
	p := device.DefaultMLCParams(2)
	p.ProgramSigma, p.ReadNoiseSigma = 0.02, 0.005
	t.Footer = []string{"", fmt.Sprintf("robust level limit at 1e-4: %d levels", p.RobustLevelLimit(1e-4))}
	return t.Text(out)
}
