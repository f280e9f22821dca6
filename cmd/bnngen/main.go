// Command bnngen inspects the model zoo and the crossbar mappings:
//
//	bnngen -list                     # zoo inventory with workloads
//	bnngen -model CNN-M              # per-layer workload table
//	bnngen -model MLP-S -map tacit   # TacitMap tiling of every layer
//	bnngen -train                    # train a small BNN on synthetic digits
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/core"
	"einsteinbarrier/internal/dataset"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/report"
	"einsteinbarrier/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bnngen:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: parses args, writes the report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bnngen", flag.ContinueOnError)
	fs.SetOutput(out)
	list := fs.Bool("list", false, "list the zoo models")
	model := fs.String("model", "", "inspect one model: "+strings.Join(bnn.ZooNames, ", "))
	mapping := fs.String("map", "", "show crossbar tiling: tacit or cust")
	train := fs.Bool("train", false, "train a demo BNN on synthetic digits")
	epochs := fs.Int("epochs", 12, "training epochs for -train")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		return listZoo(out, *seed)
	case *train:
		return trainDemo(out, *seed, *epochs)
	case *model != "":
		return inspect(out, *model, *mapping, *seed)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -train or -model")
	}
}

func listZoo(out io.Writer, seed int64) error {
	models, err := bnn.Zoo(seed)
	if err != nil {
		return err
	}
	t := &report.Table{Cols: []report.Col{{Head: "model"}, {Head: "binary ops"}, {Head: "fp MACs"}, {Head: "weight bits"}, {Head: "layers"}}}
	for _, m := range models {
		t.Add(m.Name(), m.TotalBinaryOps(), m.TotalFPMACs(), m.WeightBits(), len(m.Layers))
	}
	return t.Text(out)
}

func inspect(out io.Writer, name, mapping string, seed int64) error {
	m, err := bnn.NewModel(name, seed)
	if err != nil {
		return err
	}
	cfg := arch.DefaultConfig()
	layers := &report.Table{Title: fmt.Sprintf("%s (input %v, %d classes)", m.Name(), m.InputShape, m.Classes),
		Cols: []report.Col{{Head: "layer"}, {Head: "kind"}, {Head: "n"}, {Head: "m"}, {Head: "positions"}, {Head: "ops"}}}
	for _, c := range m.Costs() {
		switch c.Kind {
		case "binary", "fp":
			layers.Add(c.Name, c.Kind, c.Work.N, c.Work.M, c.Work.Positions, c.Work.Ops()+c.MACs)
		default:
			layers.Add(c.Name, c.Kind)
		}
	}
	if err := layers.Text(out); err != nil || mapping == "" {
		return err
	}
	tiles := &report.Table{Title: fmt.Sprintf("\n%s tiling onto %dx%d arrays:", mapping, cfg.CrossbarRows, cfg.CrossbarCols),
		Cols: []report.Col{{Head: "layer"}, {Head: "row tiles"}, {Head: "col tiles"}, {Head: "arrays"}, {Head: "steps/input"}}}
	for _, c := range m.Costs() {
		if c.Kind != "binary" {
			continue
		}
		switch mapping {
		case "tacit":
			p, err := core.PlanTacit(c.Work.N, c.Work.M, cfg.CrossbarRows, cfg.CrossbarCols)
			if err != nil {
				return err
			}
			tiles.Add(c.Name, p.RowTiles, p.ColTiles, p.Tiles(), p.SerialStepsPerInput())
		case "cust":
			p, err := core.PlanCust(c.Work.N, c.Work.M, cfg.CrossbarRows, cfg.CrossbarCols/2)
			if err != nil {
				return err
			}
			tiles.Add(c.Name, p.RowTiles, p.ColTiles, p.Tiles(), p.SerialStepsPerInput())
		default:
			return fmt.Errorf("unknown mapping %q (want tacit|cust)", mapping)
		}
	}
	return tiles.Text(out)
}

func trainDemo(out io.Writer, seed int64, epochs int) error {
	samples := dataset.Digits(800, seed)
	train, test, err := dataset.Split(samples, 0.8)
	if err != nil {
		return err
	}
	xs, ys := dataset.Flatten(train)
	txs, tys := dataset.Flatten(test)
	tr, err := bnn.NewTrainer(bnn.TrainerConfig{Sizes: []int{784, 64, 64, 10}, LR: 0.01, Seed: seed})
	if err != nil {
		return err
	}
	for epoch := 1; epoch <= epochs; epoch++ {
		loss, err := tr.TrainEpoch(xs, ys)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "epoch %2d  loss %.4f  test acc %.3f\n", epoch, loss, tr.Accuracy(txs, tys))
	}
	m := tr.Export("digit-mlp")
	batch := make([]*tensor.Float, len(test))
	for i, s := range test {
		batch[i] = s.X.Reshape(784)
	}
	classes, err := infer.New(m, 0).PredictBatch(batch)
	if err != nil {
		return err
	}
	correct := 0
	for i, class := range classes {
		if class == tys[i] {
			correct++
		}
	}
	fmt.Fprintf(out, "exported inference model accuracy: %.3f\n", float64(correct)/float64(len(test)))
	return nil
}
