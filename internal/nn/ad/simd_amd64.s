#include "textflag.h"

// AVX2 kernels for the dense products of the estimator. Every lane owns one
// output's accumulator and adds its products in the same order as the Go
// loops (ad.dot, the peer loop of infer.outputs) with a separate VMULPD and
// VADDPD — never a fused multiply-add, which rounds once where the Go code
// rounds twice — so results are Float64bits-equal to the Go path's. The
// accumulator is the first source of every VADDPD, as it is of the ADDSD the
// compiler emits for s += r*x. Callers never pass a zero-length operand, and
// every routine ends in VZEROUPPER so the SSE code around it pays no
// transition penalty.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Row kernels. R8 holds the row stride in bytes, R9 three times it; Y4..Y7
// hold x[j..j+3] broadcast; Y8..Y15 are temporaries.
//
// BLOCK4 advances four rows starting at P by four columns: it loads the 4×4
// block as eight 128-bit halves (rows 0,2 and 1,3 paired through
// VINSERTF128, which unlike a full-width permute does not need the shuffle
// port), interleaves them so that Y12..Y15 are the block's columns — lane r
// of Y12 is row r's element j — and adds the four products to ACC in
// ascending column order.
#define BLOCK4(P, ACC) \
	VMOVUPD (P), X8; \
	VMOVUPD (P)(R8*1), X9; \
	VMOVUPD 16(P), X10; \
	VMOVUPD 16(P)(R8*1), X11; \
	VINSERTF128 $1, (P)(R8*2), Y8, Y8; \
	VINSERTF128 $1, (P)(R9*1), Y9, Y9; \
	VINSERTF128 $1, 16(P)(R8*2), Y10, Y10; \
	VINSERTF128 $1, 16(P)(R9*1), Y11, Y11; \
	VUNPCKLPD Y9, Y8, Y12; \
	VUNPCKHPD Y9, Y8, Y13; \
	VUNPCKLPD Y11, Y10, Y14; \
	VUNPCKHPD Y11, Y10, Y15; \
	VMULPD Y4, Y12, Y12; \
	VMULPD Y5, Y13, Y13; \
	VMULPD Y6, Y14, Y14; \
	VMULPD Y7, Y15, Y15; \
	VADDPD Y12, ACC, ACC; \
	VADDPD Y13, ACC, ACC; \
	VADDPD Y14, ACC, ACC; \
	VADDPD Y15, ACC, ACC; \
	ADDQ $32, P

// COL1 advances four rows starting at P by one column (the cols%4 tail):
// the column is gathered element by element, x[j] is in Y4.
#define COL1(P, ACC) \
	VMOVSD (P), X8; \
	VMOVSD (P)(R8*2), X9; \
	VMOVHPD (P)(R8*1), X8, X8; \
	VMOVHPD (P)(R9*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8; \
	VMULPD Y4, Y8, Y8; \
	VADDPD Y8, ACC, ACC; \
	ADDQ $8, P

// func rowDots16AVX2(dst, w, x *float64, cols int)
//
// dst[r] = dot(w[r*cols:(r+1)*cols], x[:cols]) for r in [0,16): four
// accumulators of four rows each, so four add chains are in flight.
TEXT ·rowDots16AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R10
	MOVQ x+16(FP), DX
	MOVQ cols+24(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R10)(R8*4), R11
	LEAQ (R11)(R8*4), R12
	LEAQ (R12)(R8*4), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   tail16

block16:
	VBROADCASTSD (DX), Y4
	VBROADCASTSD 8(DX), Y5
	VBROADCASTSD 16(DX), Y6
	VBROADCASTSD 24(DX), Y7
	BLOCK4(R10, Y0)
	BLOCK4(R11, Y1)
	BLOCK4(R12, Y2)
	BLOCK4(R13, Y3)
	ADDQ $32, DX
	DECQ AX
	JNZ  block16

tail16:
	ANDQ $3, CX
	JZ   done16

col16:
	VBROADCASTSD (DX), Y4
	COL1(R10, Y0)
	COL1(R11, Y1)
	COL1(R12, Y2)
	COL1(R13, Y3)
	ADDQ $8, DX
	DECQ CX
	JNZ  col16

done16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func rowDots4AVX2(dst, w, x *float64, cols int)
//
// The four-row tail of rowDots16AVX2: one accumulator.
TEXT ·rowDots4AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R10
	MOVQ x+16(FP), DX
	MOVQ cols+24(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	VXORPD Y0, Y0, Y0
	MOVQ CX, AX
	SHRQ $2, AX
	JZ   tail4

block4:
	VBROADCASTSD (DX), Y4
	VBROADCASTSD 8(DX), Y5
	VBROADCASTSD 16(DX), Y6
	VBROADCASTSD 24(DX), Y7
	BLOCK4(R10, Y0)
	ADDQ $32, DX
	DECQ AX
	JNZ  block4

tail4:
	ANDQ $3, CX
	JZ   done4

col4:
	VBROADCASTSD (DX), Y4
	COL1(R10, Y0)
	ADDQ $8, DX
	DECQ CX
	JNZ  col4

done4:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func peerSumAVX2(dst *float64, n int, alpha *float64, idx *int, peers int, base *float64, stride, limit int) bool
//
// dst[j] = Σ_k alpha[k]·base[idx[k]*stride+j] for j in [0,n), n a multiple
// of four: lanes are columns, the accumulators start at +0 and stay in
// registers while k walks idx in order. Sixteen columns per pass, then four.
// An idx[k] outside [0,limit] ends the call with false before the pass that
// met it stores anything.
TEXT ·peerSumAVX2(SB), NOSPLIT, $0-65
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ alpha+16(FP), SI
	MOVQ idx+24(FP), R8
	MOVQ peers+32(FP), R9
	MOVQ base+40(FP), R10
	MOVQ stride+48(FP), R11
	MOVQ limit+56(FP), R12
	SHLQ $3, R11

cols16:
	CMPQ CX, $16
	JLT  cols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX

peer16:
	MOVQ (R8)(AX*8), BX
	CMPQ BX, R12
	JHI  badPeer
	IMULQ R11, BX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R10)(BX*1), Y8, Y9
	VMULPD 32(R10)(BX*1), Y8, Y10
	VMULPD 64(R10)(BX*1), Y8, Y11
	VMULPD 96(R10)(BX*1), Y8, Y12
	VADDPD Y9, Y0, Y0
	VADDPD Y10, Y1, Y1
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	INCQ AX
	CMPQ AX, R9
	JLT  peer16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R10
	SUBQ $16, CX
	JMP  cols16

cols4:
	CMPQ CX, $4
	JLT  donePeer
	VXORPD Y0, Y0, Y0
	XORQ AX, AX

peer4:
	MOVQ (R8)(AX*8), BX
	CMPQ BX, R12
	JHI  badPeer
	IMULQ R11, BX
	VBROADCASTSD (SI)(AX*8), Y8
	VMULPD (R10)(BX*1), Y8, Y9
	VADDPD Y9, Y0, Y0
	INCQ AX
	CMPQ AX, R9
	JLT  peer4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R10
	SUBQ $4, CX
	JMP  cols4

donePeer:
	MOVB $1, ret+64(FP)
	VZEROUPPER
	RET

badPeer:
	MOVB $0, ret+64(FP)
	VZEROUPPER
	RET
