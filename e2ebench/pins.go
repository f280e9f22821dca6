package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/bnn"
	"einsteinbarrier/internal/infer"
	"einsteinbarrier/internal/serve"
	"einsteinbarrier/internal/sim"
)

// Pinned reference outputs. The workloads whose outputs no cheap
// oracle can recompute (the analog lifetime and the annealing search)
// are checked against values recorded from this program's first
// version: regenerate them only on purpose, with
//
//	go run . -write-pins pins.json -repo ..
//
// and review the diff — a changed pin is a changed program output.

//go:embed pins.json
var pinsJSON []byte

// pinFile is the layout of pins.json.
type pinFile struct {
	// Search maps searchKey(network, design, seed) to the result of one
	// cold search.
	Search map[string]searchPin `json:"search"`
	// Lifetime holds one pinned lifetime per input variant.
	Lifetime []lifetimePin `json:"lifetime"`
}

type searchPin struct {
	BestScore float64 `json:"best_score"`
	// Fingerprint is the SHA-256 of the searched layout's
	// Placement.Fingerprint().
	Fingerprint string           `json:"fingerprint_sha256"`
	Steps       int              `json:"steps"`
	Counters    sim.EvalCounters `json:"counters"`
}

type lifetimePin struct {
	Variant int `json:"variant"`
	Rounds  int `json:"rounds"`
	// Classes holds one digit per request, in submission order.
	Classes string              `json:"classes"`
	Trace   []serve.CanaryPoint `json:"trace"`
}

// pins is nil only while -write-pins runs.
var pins *pinFile

func loadPins() error {
	var p pinFile
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return fmt.Errorf("pins.json: %w", err)
	}
	if len(p.Lifetime) != lifeVariants || len(p.Search) != len(bnn.ZooNames)*len(dseDesigns)*dseSeeds {
		return fmt.Errorf("pins.json: %d lifetime variants and %d searches, want %d and %d",
			len(p.Lifetime), len(p.Search), lifeVariants, len(bnn.ZooNames)*len(dseDesigns)*dseSeeds)
	}
	for _, lp := range p.Lifetime {
		if len(lp.Classes) != lifePinnedRounds*lifeMaxBatch {
			return fmt.Errorf("pins.json: lifetime variant %d has %d classes, want %d",
				lp.Variant, len(lp.Classes), lifePinnedRounds*lifeMaxBatch)
		}
	}
	pins = &p
	return nil
}

// writePins records every pinned output and writes pins.json.
func writePins(path, repo string) error {
	var p pinFile
	w := &dseSearch{env: env{repo: repo}}
	if err := w.setup(); err != nil {
		return err
	}
	p.Search = map[string]searchPin{}
	for _, m := range w.zoo {
		for _, d := range dseDesigns {
			for s := int64(1); s <= dseSeeds; s++ {
				res, _, err := w.search(m, d, s)
				if err != nil {
					return err
				}
				p.Search[searchKey(m.Name(), d, s)] = res
			}
		}
	}
	lives, err := infer.Map(maxProcs, lifeVariants, func(_, v int) (lifetimePin, error) {
		lw := &hwLifetime{env: env{seed: int64(v)}}
		if err := lw.setup(); err != nil {
			return lifetimePin{}, err
		}
		out, err := lw.measure(0)
		if err != nil {
			return lifetimePin{}, err
		}
		if err := lw.finish(out); err != nil {
			return lifetimePin{}, err
		}
		return lifetimePin{Variant: v, Rounds: lw.rounds, Classes: string(lw.classes), Trace: lw.srv.Trace()}, nil
	})
	if err != nil {
		return err
	}
	p.Lifetime = lives
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// searchKey names one pinned search.
func searchKey(network string, d arch.Design, seed int64) string {
	return fmt.Sprintf("%s/%v/%d", network, d, seed)
}
