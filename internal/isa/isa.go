// Package isa defines the instruction set of the EinsteinBarrier
// accelerator. It extends a PUMA-style spatial ISA (Ankit et al.,
// ASPLOS 2019) with the paper's MMM instruction: a single crossbar
// activation that processes K wavelength-multiplexed input vectors
// (§IV, "EinsteinBarrier extends the ISA ... to support multiple
// simultaneous VMMs, called Matrix-Matrix-Multiplication").
//
// Instructions are macro-ops: one instruction describes a whole
// layer-step (e.g. "fire these 12 tiles, repeated for 1024 positions")
// together with the peripheral event counts the hardware performs per
// repeat. The simulator (internal/sim) prices these events with the
// cost tables in internal/energy.
package isa

import (
	"fmt"
	"strings"
)

// Opcode enumerates the instruction kinds.
type Opcode uint8

const (
	// OpNop does nothing (padding / alignment).
	OpNop Opcode = iota
	// OpMVM fires Tiles crossbars in parallel for one analog VMM
	// (TacitMap step), Repeat times.
	OpMVM
	// OpMMM fires Tiles oPCM crossbars with K wavelengths (WDM batch),
	// Repeat times. EinsteinBarrier's ISA extension.
	OpMMM
	// OpRowStep performs Count sequential word-line activations of a
	// 2T2R array with PCSA sensing (CustBinaryMap step), Repeat times.
	OpRowStep
	// OpFPMVM is a bit-streamed full-precision VMM: Bits sequential
	// binary VMMs with shift-and-add, over Tiles crossbars, Repeat times.
	OpFPMVM
	// OpAdd performs Count digital partial-sum additions.
	OpAdd
	// OpPopc performs Count digital popcount-tree operations.
	OpPopc
	// OpThresh performs Count threshold/sign activations.
	OpThresh
	// OpSend moves Bytes of activations over Hops mesh hops (and
	// ChipHops chip-to-chip hops).
	OpSend
	// OpSync is a layer barrier carrying the fixed per-layer control
	// overhead (instruction dispatch, operand steering, buffer drain).
	OpSync
	// OpHalt ends the program.
	OpHalt
)

var opNames = map[Opcode]string{
	OpNop: "NOP", OpMVM: "MVM", OpMMM: "MMM", OpRowStep: "ROWSTEP",
	OpFPMVM: "FPMVM", OpAdd: "ADD", OpPopc: "POPC", OpThresh: "THRESH",
	OpSend: "SEND", OpSync: "SYNC", OpHalt: "HALT",
}

// String implements fmt.Stringer.
func (o Opcode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Opcode(%d)", uint8(o))
}

// Instruction is one macro-op. Zero-valued fields are legal where the
// opcode ignores them; Validate enforces per-opcode requirements.
type Instruction struct {
	Op Opcode
	// Tiles is the number of crossbars fired in parallel (MVM/MMM/FPMVM).
	Tiles int
	// K is the WDM wavelength count (MMM only).
	K int
	// Bits is the input bit-stream depth (FPMVM only).
	Bits int
	// Count is the per-repeat operation count: rows for ROWSTEP, ops for
	// ADD/POPC/THRESH.
	Count int64
	// Repeat repeats the whole macro-op (e.g. once per conv position).
	Repeat int64
	// Convs / DACs are the per-repeat ADC and DAC conversion counts of
	// analog ops.
	Convs, DACs int64
	// Cells is the per-repeat count of memory devices read (crossbar
	// cells conducting, or 2T2R devices sensed); the energy model
	// prices array energy per cell.
	Cells int64
	// Bytes / Hops / ChipHops describe SEND transfers.
	Bytes    int64
	Hops     int
	ChipHops int
	// Src / Dst are region-relative tile operands of placement-aware
	// SENDs: 1 + the tile index inside the program's placement region
	// (compiler.Region, invertible via Region.ResolveTile), so 0 means
	// "unplaced" — legacy and greedy-placed programs leave them unset.
	// Dst 0 on a placed SEND means the transfer leaves the region (host
	// egress; ChipHops carries the chip distance). The operands make
	// placed programs self-describing in program dumps; the simulator
	// itself schedules from the richer Compiled.Placement structure
	// rather than re-deriving routes from these.
	Src, Dst int
	// Comment is free-form annotation (layer name).
	Comment string
}

// Validate checks per-opcode operand constraints.
func (in Instruction) Validate() error {
	nonneg := in.Tiles >= 0 && in.K >= 0 && in.Bits >= 0 && in.Count >= 0 &&
		in.Repeat >= 0 && in.Convs >= 0 && in.DACs >= 0 && in.Cells >= 0 &&
		in.Bytes >= 0 && in.Hops >= 0 && in.ChipHops >= 0 &&
		in.Src >= 0 && in.Dst >= 0
	if !nonneg {
		return fmt.Errorf("isa: negative operand in %s", in)
	}
	switch in.Op {
	case OpNop, OpHalt, OpSync:
		return nil
	case OpMVM, OpFPMVM:
		if in.Tiles < 1 || in.Repeat < 1 {
			return fmt.Errorf("isa: %s needs tiles ≥ 1 and repeat ≥ 1: %s", in.Op, in)
		}
		if in.Op == OpFPMVM && in.Bits < 1 {
			return fmt.Errorf("isa: FPMVM needs bits ≥ 1: %s", in)
		}
	case OpMMM:
		if in.Tiles < 1 || in.Repeat < 1 || in.K < 1 {
			return fmt.Errorf("isa: MMM needs tiles, repeat, k ≥ 1: %s", in)
		}
	case OpRowStep:
		if in.Count < 1 || in.Repeat < 1 {
			return fmt.Errorf("isa: ROWSTEP needs count ≥ 1 and repeat ≥ 1: %s", in)
		}
	case OpAdd, OpPopc, OpThresh:
		if in.Count < 1 {
			return fmt.Errorf("isa: %s needs count ≥ 1: %s", in.Op, in)
		}
	case OpSend:
		if in.Bytes < 1 {
			return fmt.Errorf("isa: SEND needs bytes ≥ 1: %s", in)
		}
	default:
		return fmt.Errorf("isa: unknown opcode %d", in.Op)
	}
	return nil
}

// String renders the canonical assembly form.
func (in Instruction) String() string {
	var sb strings.Builder
	sb.WriteString(in.Op.String())
	put := func(k string, v int64) {
		if v != 0 {
			fmt.Fprintf(&sb, " %s=%d", k, v)
		}
	}
	put("tiles", int64(in.Tiles))
	put("k", int64(in.K))
	put("bits", int64(in.Bits))
	put("count", in.Count)
	put("repeat", in.Repeat)
	put("convs", in.Convs)
	put("dacs", in.DACs)
	put("cells", in.Cells)
	put("bytes", in.Bytes)
	put("hops", int64(in.Hops))
	put("chiphops", int64(in.ChipHops))
	put("src", int64(in.Src))
	put("dst", int64(in.Dst))
	if in.Comment != "" {
		fmt.Fprintf(&sb, " ; %s", in.Comment)
	}
	return sb.String()
}

// Program is an ordered instruction sequence.
type Program []Instruction

// Validate checks every instruction and that the program is
// HALT-terminated.
func (p Program) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	for i, in := range p {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: instruction %d: %w", i, err)
		}
	}
	if p[len(p)-1].Op != OpHalt {
		return fmt.Errorf("isa: program must end with HALT")
	}
	return nil
}

// String renders one instruction per line.
func (p Program) String() string {
	var sb strings.Builder
	for _, in := range p {
		sb.WriteString(in.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Section is one SYNC-delimited slice of a program — the unit the
// pipelined simulator schedules as a stage. Name is the SYNC barrier's
// comment (the compiler stamps the layer name); Ins holds the section's
// instructions including the closing SYNC. Trailing instructions after
// the last SYNC (typically just HALT) form an unnamed final section.
type Section struct {
	Name string
	Ins  Program
}

// Sections splits the program at its SYNC barriers. Unnamed barriers
// get deterministic "section-i" labels, mirroring the simulator's
// per-layer report.
func (p Program) Sections() []Section {
	var out []Section
	start := 0
	for i, in := range p {
		if in.Op != OpSync {
			continue
		}
		name := in.Comment
		if name == "" {
			name = fmt.Sprintf("section-%d", len(out))
		}
		out = append(out, Section{Name: name, Ins: p[start : i+1]})
		start = i + 1
	}
	if start < len(p) {
		out = append(out, Section{Ins: p[start:]})
	}
	return out
}
