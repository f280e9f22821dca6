#include "textflag.h"

// func denseLanesAVX512(y, x, w *float64, in, out, groups int)
//
// y[o*64+s] += w[o*in+f] * x[f*64+s] for o in [0, out), f in [0, in)
// ascending, s in [0, 8*groups). in, out and groups are all ≥ 1.
//
// Eight output rows × one lane group form a tile: the eight
// accumulators live in Z0-Z7, and each feature is one lane load (Z8)
// plus, per row, a VMULPD with the weight broadcast from memory and a
// VADDPD into the row's accumulator — elementwise IEEE mul-then-add,
// the scalar sequence (no FMA contraction). The eight adds are
// independent, so the tile is throughput-bound rather than bound by
// one chain's add latency. Rows left over after the 8-row tiles run
// as 1×8 tiles.
//
// Registers: DI y tile base, SI x, R8 w tile base, R9 row stride in
// bytes (in*8), R12 3*R9, R10 rows left, R11 lane-group limit in bytes
// (groups*64), CX lane-group offset in bytes, BX x cursor, DX/R13
// w cursors for rows 0-3 / 4-7, AX feature counter.
TEXT ·denseLanesAVX512(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ in+24(FP), R9
	MOVQ out+32(FP), R10
	MOVQ groups+40(FP), R11
	SHLQ $3, R9
	LEAQ (R9)(R9*2), R12
	SHLQ $6, R11

tile:
	CMPQ R10, $8
	JLT  rows
	XORQ CX, CX

tilegroup:
	LEAQ    (DI)(CX*1), AX
	VMOVUPD (AX), Z0
	VMOVUPD 512(AX), Z1
	VMOVUPD 1024(AX), Z2
	VMOVUPD 1536(AX), Z3
	VMOVUPD 2048(AX), Z4
	VMOVUPD 2560(AX), Z5
	VMOVUPD 3072(AX), Z6
	VMOVUPD 3584(AX), Z7
	LEAQ    (SI)(CX*1), BX
	MOVQ    R8, DX
	LEAQ    (R8)(R9*4), R13
	MOVQ    in+24(FP), AX

tilefeat:
	VMOVUPD     (BX), Z8
	VMULPD.BCST (DX), Z8, Z9
	VADDPD      Z9, Z0, Z0
	VMULPD.BCST (DX)(R9*1), Z8, Z10
	VADDPD      Z10, Z1, Z1
	VMULPD.BCST (DX)(R9*2), Z8, Z11
	VADDPD      Z11, Z2, Z2
	VMULPD.BCST (DX)(R12*1), Z8, Z12
	VADDPD      Z12, Z3, Z3
	VMULPD.BCST (R13), Z8, Z13
	VADDPD      Z13, Z4, Z4
	VMULPD.BCST (R13)(R9*1), Z8, Z14
	VADDPD      Z14, Z5, Z5
	VMULPD.BCST (R13)(R9*2), Z8, Z15
	VADDPD      Z15, Z6, Z6
	VMULPD.BCST (R13)(R12*1), Z8, Z16
	VADDPD      Z16, Z7, Z7
	ADDQ        $512, BX
	ADDQ        $8, DX
	ADDQ        $8, R13
	DECQ        AX
	JNZ         tilefeat

	LEAQ    (DI)(CX*1), AX
	VMOVUPD Z0, (AX)
	VMOVUPD Z1, 512(AX)
	VMOVUPD Z2, 1024(AX)
	VMOVUPD Z3, 1536(AX)
	VMOVUPD Z4, 2048(AX)
	VMOVUPD Z5, 2560(AX)
	VMOVUPD Z6, 3072(AX)
	VMOVUPD Z7, 3584(AX)
	ADDQ    $64, CX
	CMPQ    CX, R11
	JLT     tilegroup

	ADDQ $4096, DI
	LEAQ (R8)(R9*8), R8
	SUBQ $8, R10
	JMP  tile

rows:
	TESTQ R10, R10
	JZ    done
	XORQ  CX, CX

rowgroup:
	LEAQ    (DI)(CX*1), AX
	VMOVUPD (AX), Z0
	LEAQ    (SI)(CX*1), BX
	MOVQ    R8, DX
	MOVQ    in+24(FP), R13

rowfeat:
	VMOVUPD     (BX), Z8
	VMULPD.BCST (DX), Z8, Z9
	VADDPD      Z9, Z0, Z0
	ADDQ        $512, BX
	ADDQ        $8, DX
	DECQ        R13
	JNZ         rowfeat

	VMOVUPD Z0, (AX)
	ADDQ    $64, CX
	CMPQ    CX, R11
	JLT     rowgroup

	ADDQ $512, DI
	ADDQ R9, R8
	DECQ R10
	JMP  rows

done:
	VZEROUPPER
	RET
