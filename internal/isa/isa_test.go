package isa

import (
	"strings"
	"testing"
)

func sampleProgram() Program {
	return Program{
		{Op: OpMVM, Tiles: 9, Repeat: 1024, Convs: 1152, DACs: 2304, Cells: 294912, Comment: "conv1"},
		{Op: OpMMM, Tiles: 9, K: 16, Repeat: 64, Convs: 18432, DACs: 36864, Cells: 294912, Count: 256},
		{Op: OpRowStep, Count: 1152, Repeat: 1024, Cells: 294912},
		{Op: OpFPMVM, Tiles: 4, Bits: 8, K: 2, Repeat: 16, Convs: 8192, DACs: 432, Cells: 27648, Count: 27},
		{Op: OpAdd, Count: 1024},
		{Op: OpPopc, Count: 4096},
		{Op: OpThresh, Count: 128},
		{Op: OpSend, Bytes: 16384, Hops: 3, ChipHops: 1},
		{Op: OpSync, Comment: "conv1"},
		{Op: OpHalt},
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op, want := range map[Opcode]string{
		OpNop: "NOP", OpMVM: "MVM", OpMMM: "MMM", OpRowStep: "ROWSTEP",
		OpFPMVM: "FPMVM", OpAdd: "ADD", OpPopc: "POPC", OpThresh: "THRESH",
		OpSend: "SEND", OpSync: "SYNC", OpHalt: "HALT",
	} {
		if op.String() != want {
			t.Fatalf("%v != %s", op, want)
		}
	}
	if !strings.Contains(Opcode(99).String(), "99") {
		t.Fatal("unknown opcode should print numerically")
	}
}

func TestProgramValidate(t *testing.T) {
	if err := sampleProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Instruction{
		{Op: OpMVM},                                 // no tiles/repeat
		{Op: OpMVM, Tiles: 1},                       // no repeat
		{Op: OpMMM, Tiles: 1, Repeat: 1},            // no k
		{Op: OpFPMVM, Tiles: 1, Repeat: 1},          // no bits
		{Op: OpRowStep, Repeat: 1},                  // no count
		{Op: OpAdd},                                 // no count
		{Op: OpSend},                                // no bytes
		{Op: OpMVM, Tiles: -1, Repeat: 1},           // negative
		{Op: Opcode(77)},                            // unknown
		{Op: OpMVM, Tiles: 1, Repeat: 1, Cells: -5}, // negative cells
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Fatalf("case %d (%s): expected error", i, in)
		}
	}
}

func TestProgramValidateStructure(t *testing.T) {
	if err := (Program{}).Validate(); err == nil {
		t.Fatal("empty program should fail")
	}
	noHalt := Program{{Op: OpNop}}
	if err := noHalt.Validate(); err == nil {
		t.Fatal("program without HALT should fail")
	}
}

func TestStringContainsOperands(t *testing.T) {
	in := Instruction{Op: OpMMM, Tiles: 3, K: 16, Repeat: 7, Comment: "note"}
	s := in.String()
	for _, frag := range []string{"MMM", "tiles=3", "k=16", "repeat=7", "; note"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("%q missing %q", s, frag)
		}
	}
}

func TestSections(t *testing.T) {
	p := Program{
		{Op: OpMVM, Tiles: 1, Repeat: 1},
		{Op: OpSend, Bytes: 8},
		{Op: OpSync, Comment: "layer-a"},
		{Op: OpMMM, Tiles: 2, K: 4, Repeat: 1},
		{Op: OpSync}, // unnamed
		{Op: OpHalt},
	}
	secs := p.Sections()
	if len(secs) != 3 {
		t.Fatalf("got %d sections, want 3", len(secs))
	}
	if secs[0].Name != "layer-a" || len(secs[0].Ins) != 3 {
		t.Fatalf("section 0 wrong: %q, %d instructions", secs[0].Name, len(secs[0].Ins))
	}
	if secs[0].Ins[len(secs[0].Ins)-1].Op != OpSync {
		t.Fatal("section must include its closing SYNC")
	}
	if secs[1].Name != "section-1" {
		t.Fatalf("unnamed barrier should get a deterministic label, got %q", secs[1].Name)
	}
	// Trailing HALT forms the unnamed final section.
	if secs[2].Name != "" || len(secs[2].Ins) != 1 || secs[2].Ins[0].Op != OpHalt {
		t.Fatalf("trailing section wrong: %+v", secs[2])
	}
	// Sections cover the program exactly, in order.
	total := 0
	for _, s := range secs {
		total += len(s.Ins)
	}
	if total != len(p) {
		t.Fatalf("sections cover %d of %d instructions", total, len(p))
	}
}

// TestRegionRelativeOperands covers the placement IR's SEND operands:
// src/dst render only when set, and negatives are rejected.
func TestRegionRelativeOperands(t *testing.T) {
	p := Program{
		{Op: OpSend, Bytes: 64, Hops: 3, ChipHops: 2, Src: 5, Dst: 12, Comment: "fc0/gather"},
		{Op: OpSend, Bytes: 8, Hops: 1, Src: 7}, // dst 0 = host egress
		{Op: OpHalt},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	text := p.String()
	if !strings.Contains(text, "src=5") || !strings.Contains(text, "dst=12") {
		t.Fatalf("operands not rendered:\n%s", text)
	}
	if strings.Contains(strings.Split(text, "\n")[1], "dst=") {
		t.Fatalf("zero dst must not render:\n%s", text)
	}
	bad := Instruction{Op: OpSend, Bytes: 1, Src: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative src must be invalid")
	}
}
