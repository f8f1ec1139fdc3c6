#include "textflag.h"

// func addMatVecAVX2(dst, panel, x []float64)
//
// dst[r] += Σ_i w[r][i]·x[i] for r < len(dst)&^7, one output row per
// float64 lane: for every input i, VBROADCASTSD x[i], VMULPD w·x (w the
// first source), VADDPD acc+product (acc the first source). The
// operations and their order are those of addMatVec's scalar chain, so
// every lane rounds exactly as that row does. panel holds the weights in
// blocks of 8 rows, column after column: panel[(b*len(x)+i)*8+r] =
// w[(8b+r)*len(x)+i]. Two blocks (four add chains) are in flight while at
// least two remain, to hide the add latency; a last odd block runs alone.
TEXT ·addMatVecAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), BX
	MOVQ panel_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ CX, R10
	SHLQ $6, R10 // bytes per block of the panel: 8 rows of len(x) values
	SHRQ $3, BX  // blocks

pair:
	CMPQ BX, $2
	JLT  single
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, R8
	LEAQ (SI)(R10*1), R9
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   pairstore

paircol:
	VBROADCASTSD (R11), Y4
	VMOVUPD 0(R8), Y5
	VMOVUPD 32(R8), Y6
	VMOVUPD 0(R9), Y7
	VMOVUPD 32(R9), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R11
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ R12
	JNZ  paircol

pairstore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (SI)(R10*2), SI
	SUBQ $2, BX
	JMP  pair

single:
	TESTQ BX, BX
	JZ    done
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ DX, R11
	MOVQ CX, R12
	TESTQ R12, R12
	JZ   singlestore

singlecol:
	VBROADCASTSD (R11), Y4
	VMOVUPD 0(SI), Y5
	VMOVUPD 32(SI), Y6
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	ADDQ $8, R11
	ADDQ $64, SI
	DECQ R12
	JNZ  singlecol

singlestore:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)

done:
	VZEROUPPER
	RET
