// Package sim executes compiled instruction streams (internal/isa) over
// an architecture configuration (internal/arch), pricing every hardware
// event with the cost tables (internal/energy) and the interconnect
// model (internal/noc). It produces the per-design latency and energy
// numbers behind the paper's Fig. 7 and Fig. 8, and — through the
// tile-level pipeline engine (engine.go) — the steady-state batch
// throughput of the streaming extension.
package sim

import (
	"fmt"

	"einsteinbarrier/internal/arch"
	"einsteinbarrier/internal/compiler"
	"einsteinbarrier/internal/device"
	"einsteinbarrier/internal/energy"
	"einsteinbarrier/internal/isa"
	"einsteinbarrier/internal/noc"
)

// Result is the outcome of simulating one inference.
type Result struct {
	// ModelName and Design echo the inputs.
	ModelName string
	Design    arch.Design
	// LatencyNs is the end-to-end critical-path latency of one
	// inference.
	LatencyNs float64
	// Energy is the energy breakdown (pJ).
	Energy energy.Breakdown
	// Counters aggregates raw event counts.
	Counters Counters
	// PerLayer holds per-SYNC-section latencies, keyed by order.
	PerLayer []LayerTime
}

// LayerTime is the latency contribution of one layer section.
type LayerTime struct {
	Name      string
	LatencyNs float64
}

// Counters tallies raw events.
type Counters struct {
	VMMs, MMMs, RowSteps, FPVMMs     int64
	ADCConversions, DACConversions   int64
	DigitalAdds, Popcounts, Threshes int64
	BytesMoved                       int64
	Instructions                     int64
}

// EnergyPJ is a convenience accessor.
func (r *Result) EnergyPJ() float64 { return r.Energy.TotalPJ() }

// Simulator prices instruction streams.
type Simulator struct {
	cfg   arch.Config
	costs energy.CostParams
	mesh  noc.Config
}

// New builds a simulator; it validates all configuration up front.
func New(cfg arch.Config, costs energy.CostParams) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := costs.Validate(); err != nil {
		return nil, err
	}
	mesh := noc.DefaultConfig(cfg.MeshWidth())
	if err := mesh.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{cfg: cfg, costs: costs, mesh: mesh}, nil
}

// stageCost is the per-SYNC-section pricing the pipeline engine builds
// on: the section's tile-resident service time and its trailing NoC
// transfer, separated so the engine can overlap compute and movement of
// consecutive samples.
type stageCost struct {
	name string
	// serviceNs is everything the stage's tiles do per sample (analog
	// steps, digital post-processing, the SYNC overhead) — the time the
	// tiles stay busy.
	serviceNs float64
	// sendLatNs / sendBytes describe the stage's output transfer to the
	// next stage's tiles.
	sendLatNs float64
	sendBytes int64
}

// Run executes a compiled model and returns the inference result.
func (s *Simulator) Run(c *compiler.Compiled) (*Result, error) {
	res, _, err := s.price(c)
	return res, err
}

// price executes the instruction stream once, producing both the serial
// single-inference Result (the exact arithmetic of the original
// critical-path simulator — Fig. 7/8 metrics are bit-identical) and the
// SYNC-delimited stage costs the pipeline engine schedules.
func (s *Simulator) price(c *compiler.Compiled) (*Result, []stageCost, error) {
	if err := c.Program.Validate(); err != nil {
		return nil, nil, err
	}
	spec, err := c.Design.Spec()
	if err != nil {
		return nil, nil, err
	}
	cfg, mesh := s.cfg, s.mesh
	// Per-design hook: the cost table may be tuned by the registered
	// spec (a nil hook returns the shared table unchanged).
	costs := spec.EffectiveCosts(s.costs)
	effK := cfg.EffectiveK(c.Design)

	res := &Result{ModelName: c.ModelName, Design: c.Design}
	adcRounds := cfg.ADCRoundsPerVMM()
	// Optical power is duty-cycled: the transmitter (laser, modulators,
	// comb tuning — Eq. (3), scaled to the rows the layer actually
	// modulates) illuminates the array only for the optical settling
	// window. One transmitter stream is broadcast to all tiles holding
	// slices of the same input (on-chip optical broadcast, Cardoso et
	// al. 2022); replicas processing different positions need their own
	// streams. Each TIA is powered for its own deserialization slot, so
	// TIA energy rides on the conversion count. mW × ns = pJ.
	isOptical := spec.Tech == device.OPCM
	opticalStaticPJ := func(repeat, convs int64, rows, streams int) float64 {
		if !isOptical {
			return 0
		}
		if streams < 1 {
			streams = 1
		}
		if rows < 1 {
			rows = cfg.CrossbarRows
		}
		txMW := costs.TransmitterPowerMW(effK, rows)
		perStep := txMW * costs.SettleONs * float64(streams)
		tia := float64(convs) * costs.TIAEnergyPJ
		return float64(repeat) * (perStep + tia)
	}
	var stages []stageCost
	cur := stageCost{}
	sectionStart := 0.0
	for _, in := range c.Program {
		res.Counters.Instructions++
		var dt float64
		var e energy.Breakdown
		switch in.Op {
		case isa.OpNop, isa.OpHalt:
			// free
		case isa.OpSync:
			dt = costs.LayerOverheadNs
			e.ControlPJ = costs.LayerOverheadPJ
			// Sections are delimited by SYNC barriers and named by the
			// barrier's comment (the compiler stamps the layer name on
			// every SYNC it emits); an unnamed barrier still produces a
			// deterministic section label.
			name := in.Comment
			if name == "" {
				name = fmt.Sprintf("section-%d", len(res.PerLayer))
			}
			res.PerLayer = append(res.PerLayer, LayerTime{
				Name:      name,
				LatencyNs: res.LatencyNs + dt - sectionStart,
			})
			sectionStart = res.LatencyNs + dt
			cur.name = name
			cur.serviceNs += dt
			stages = append(stages, cur)
			cur = stageCost{}
		case isa.OpMVM:
			dt = float64(in.Repeat) * costs.VMMStepENs(adcRounds)
			res.Counters.VMMs += in.Repeat * int64(in.Tiles)
			res.Counters.ADCConversions += in.Repeat * in.Convs
			res.Counters.DACConversions += in.Repeat * in.DACs
			e.CrossbarPJ = float64(in.Repeat*in.Cells) * costs.CellReadEPJ
			e.ADCPJ = float64(in.Repeat*in.Convs) * costs.ADCEPJ
			e.DACPJ = float64(in.Repeat*in.DACs) * costs.DACPJ
			cur.serviceNs += dt
		case isa.OpMMM:
			dt = float64(in.Repeat) * costs.VMMStepONs(adcRounds)
			res.Counters.MMMs += in.Repeat * int64(in.Tiles)
			res.Counters.ADCConversions += in.Repeat * in.Convs
			res.Counters.DACConversions += in.Repeat * in.DACs
			e.CrossbarPJ = float64(in.Repeat*in.Cells) * costs.CellReadOPJ
			e.ADCPJ = float64(in.Repeat*in.Convs) * costs.ADCOPJ
			e.DACPJ = float64(in.Repeat*in.DACs) * costs.DACPJ
			e.StaticPJ = opticalStaticPJ(in.Repeat, in.Convs, int(in.Count), 1)
			cur.serviceNs += dt
		case isa.OpFPMVM:
			// Bit-streamed multi-bit VMM: Bits sequential analog steps.
			bits := float64(in.Bits)
			if isOptical {
				dt = float64(in.Repeat) * bits * costs.VMMStepONs(adcRounds)
				e.CrossbarPJ = float64(in.Repeat*in.Cells) * costs.CellReadOPJ
				e.ADCPJ = float64(in.Repeat*in.Convs) * costs.ADCOPJ
				e.StaticPJ = opticalStaticPJ(
					in.Repeat*int64(in.Bits), in.Convs/int64(in.Bits), int(in.Count), in.K)
			} else {
				dt = float64(in.Repeat) * bits * costs.VMMStepENs(adcRounds)
				e.CrossbarPJ = float64(in.Repeat*in.Cells) * costs.CellReadEPJ
				e.ADCPJ = float64(in.Repeat*in.Convs) * costs.ADCEPJ
			}
			res.Counters.FPVMMs += in.Repeat * int64(in.Tiles) * int64(in.Bits)
			res.Counters.ADCConversions += in.Repeat * in.Convs
			res.Counters.DACConversions += in.Repeat * in.DACs
			e.DACPJ = float64(in.Repeat*in.DACs) * costs.DACPJ
			cur.serviceNs += dt
		case isa.OpRowStep:
			dt = float64(in.Repeat) * float64(in.Count) * costs.RowStepNs
			res.Counters.RowSteps += in.Repeat * in.Count
			e.SensePJ = float64(in.Repeat*in.Cells)*costs.PCSADevicePJ +
				float64(in.Repeat*in.Count)*costs.CounterPJ
			cur.serviceNs += dt
		// The digital post-processing units (popcount trees, partial-sum
		// adders, threshold units) are pipelined behind the analog
		// steps — one result per step drains through them — so they
		// contribute energy but no critical-path latency.
		case isa.OpPopc:
			res.Counters.Popcounts += in.Count
			e.DigitalPJ = float64(in.Count) * costs.PopcountPJ
		case isa.OpAdd:
			res.Counters.DigitalAdds += in.Count
			e.DigitalPJ = float64(in.Count) * costs.DigitalAddPJ
		case isa.OpThresh:
			res.Counters.Threshes += in.Count
			e.DigitalPJ = float64(in.Count) * costs.DigitalAddPJ
		case isa.OpSend:
			lat, pj, err := mesh.Transfer(in.Bytes, in.Hops, in.ChipHops)
			if err != nil {
				return nil, nil, err
			}
			dt = lat
			res.Counters.BytesMoved += in.Bytes
			e.ControlPJ = pj
			cur.sendLatNs += lat
			cur.sendBytes += in.Bytes
		default:
			return nil, nil, fmt.Errorf("sim: unknown opcode %v", in.Op)
		}
		res.LatencyNs += dt
		res.Energy.Add(e)
	}
	// Work after the final SYNC (normally just HALT) forms a trailing
	// stage only if it did anything.
	if cur.serviceNs > 0 || cur.sendBytes > 0 {
		cur.name = fmt.Sprintf("section-%d", len(stages))
		stages = append(stages, cur)
	}
	return res, stages, nil
}
