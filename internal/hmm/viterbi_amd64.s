#include "textflag.h"

// STEP advances one block of 4 states by predecessor i, whose score is
// broadcast in Y5 and whose index is in every lane of Y4; off is the
// block's byte offset in trans row i. It adds s = prev[i] +
// trans[i][j..j+3], compares s > best with GT_OQ (false when either is
// NaN) and blends i into idx where that holds. VMAXPD s, best is by
// definition `s > best ? s : best` (best on NaN and on equal operands,
// ±0 included): the Go loop's `if s > best { best = s }` verbatim, and
// off the compare-and-blend path, so the running maximum's chain is one
// instruction long. Y6 and Y7 are scratch.
#define STEP(off, best, idx) \
	VADDPD off(R12), Y5, Y6; \
	VCMPPD $0x1e, best, Y6, Y7; \
	VMAXPD best, Y6, best; \
	VBLENDVPD Y7, Y4, idx, idx

// INIT starts a block: best −Inf (Y14), index 0, as the Go loop does.
#define INIT(best, idx) \
	VMOVAPD Y14, best; \
	VPXOR idx, idx, idx

// STORE writes a block's scores to score[n*4:] and its indexes, packed
// from int64 lanes to int32, to arg[n*4:] (DI and R8 at the group's
// base). X12 is scratch.
#define STORE(n, best, idx, xidx) \
	VMOVUPD best, (n*32)(DI); \
	VEXTRACTI128 $1, idx, X12; \
	VSHUFPS $0x88, X12, xidx, X12; \
	VMOVDQU X12, (n*16)(R8)

// func bestPredecessorsAVX2(prev, trans, score []float64, arg []int32)
//
// For every state j < len(score) (a multiple of 4), score[j] = max_i
// prev[i]+trans[i*n+j] and arg[j] = the first i attaining it, with
// n = len(prev) and trans row-major. One state per float64 lane, every
// predecessor i in ascending order (STEP): predecessors' strict `s > best`
// over ascending i, so ties keep the first index and a NaN sum never
// wins. The running maximum is one dependency chain per block, so four
// blocks are in flight while four remain, then two, then one.
TEXT ·bestPredecessorsAVX2(SB), NOSPLIT, $0-96
	MOVQ prev_base+0(FP), SI
	MOVQ prev_len+8(FP), CX
	MOVQ trans_base+24(FP), DX
	MOVQ score_base+48(FP), DI
	MOVQ score_len+56(FP), BX
	MOVQ arg_base+72(FP), R8
	MOVQ CX, R10
	SHLQ $3, R10 // row stride of trans in bytes
	SHRQ $2, BX  // blocks of 4 states
	MOVQ $0xfff0000000000000, AX
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14 // −Inf in every lane
	MOVQ $1, AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15 // int64 1 in every lane

four:
	CMPQ BX, $4
	JLT  two
	INIT(Y0, Y8)
	INIT(Y1, Y9)
	INIT(Y2, Y10)
	INIT(Y3, Y11)
	VPXOR Y4, Y4, Y4
	MOVQ  SI, R11
	MOVQ  DX, R12
	MOVQ  CX, R13

fourcol:
	VBROADCASTSD (R11), Y5
	STEP(0, Y0, Y8)
	STEP(32, Y1, Y9)
	STEP(64, Y2, Y10)
	STEP(96, Y3, Y11)
	VPADDQ Y15, Y4, Y4
	ADDQ   $8, R11
	ADDQ   R10, R12
	DECQ   R13
	JNZ    fourcol

	STORE(0, Y0, Y8, X8)
	STORE(1, Y1, Y9, X9)
	STORE(2, Y2, Y10, X10)
	STORE(3, Y3, Y11, X11)
	ADDQ $128, DI
	ADDQ $64, R8
	ADDQ $128, DX
	SUBQ $4, BX
	JMP  four

two:
	CMPQ BX, $2
	JLT  one
	INIT(Y0, Y8)
	INIT(Y1, Y9)
	VPXOR Y4, Y4, Y4
	MOVQ  SI, R11
	MOVQ  DX, R12
	MOVQ  CX, R13

twocol:
	VBROADCASTSD (R11), Y5
	STEP(0, Y0, Y8)
	STEP(32, Y1, Y9)
	VPADDQ Y15, Y4, Y4
	ADDQ   $8, R11
	ADDQ   R10, R12
	DECQ   R13
	JNZ    twocol

	STORE(0, Y0, Y8, X8)
	STORE(1, Y1, Y9, X9)
	ADDQ $64, DI
	ADDQ $32, R8
	ADDQ $64, DX
	SUBQ $2, BX

one:
	TESTQ BX, BX
	JZ    done
	INIT(Y0, Y8)
	VPXOR Y4, Y4, Y4
	MOVQ  SI, R11
	MOVQ  DX, R12
	MOVQ  CX, R13

onecol:
	VBROADCASTSD (R11), Y5
	STEP(0, Y0, Y8)
	VPADDQ Y15, Y4, Y4
	ADDQ   $8, R11
	ADDQ   R10, R12
	DECQ   R13
	JNZ    onecol

	STORE(0, Y0, Y8, X8)

done:
	VZEROUPPER
	RET
