#include "textflag.h"

// AVX2 kernels for the dense products of the estimator. Every lane owns one
// output's accumulator and adds its products in the same order as the Go
// loops (ad.dot, WindowDots' and peerDots' loops) with a separate VMULPD and
// VADDPD — never a fused multiply-add, which rounds once where the Go code
// rounds twice — so results are Float64bits-equal to the Go path's. The
// accumulator is the first source of every VADDPD, as it is of the ADDSD the
// compiler emits for s += r*x. Callers never pass a zero-length operand, and
// every routine ends in VZEROUPPER so the SSE code around it pays no
// transition penalty. The gate activations at the end of the file follow the
// same rule from the other side: the scalar code they must equal, math.Exp,
// fuses its multiply-adds, so they do too, instruction for instruction.

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
// GATHER4 loads the 4×4 block of the four rows starting at P, four columns
// on, as eight 128-bit halves (rows 0,2 and 1,3 paired through VINSERTF128,
// which unlike a full-width permute does not need the shuffle port) and
// interleaves them so that Y12..Y15 are the block's columns — lane r of Y12
// is row r's element j. MACC4 adds the four columns' products to ACC in
// ascending column order.
#define GATHER4(P) \
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
	ADDQ $32, P

#define MACC4(ACC) \
	VMULPD Y4, Y12, Y12; \
	VMULPD Y5, Y13, Y13; \
	VMULPD Y6, Y14, Y14; \
	VMULPD Y7, Y15, Y15; \
	VADDPD Y12, ACC, ACC; \
	VADDPD Y13, ACC, ACC; \
	VADDPD Y14, ACC, ACC; \
	VADDPD Y15, ACC, ACC

// GATHER1 gathers one column of the four rows starting at P (the cols%4
// tail) into Y8, element by element; MACC1 adds its product with x[j], in
// Y4, to ACC.
#define GATHER1(P) \
	VMOVSD (P), X8; \
	VMOVSD (P)(R8*2), X9; \
	VMOVHPD (P)(R8*1), X8, X8; \
	VMOVHPD (P)(R9*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8; \
	ADDQ $8, P

#define MACC1(ACC) \
	VMULPD Y4, Y8, Y8; \
	VADDPD Y8, ACC, ACC

// Panels. A row kernel's gathered columns are a transposed copy of its rows:
// the pack kernels store them, as they form, to a panel at SI, and the
// packed kernels read them back from there with plain loads instead of
// gathering. There is no gather-only kernel: every caller has a panel. A panel of 4g rows (g = 4 or 1) holds, per block of four
// columns, the g groups' Y12..Y15 in turn, then per tail column the g
// groups' Y8 in turn — 4g·cols floats, the size of the rows it copies.
#define STORE4 \
	VMOVUPD Y12, (SI); \
	VMOVUPD Y13, 32(SI); \
	VMOVUPD Y14, 64(SI); \
	VMOVUPD Y15, 96(SI); \
	ADDQ $128, SI

#define LOAD4 \
	VMOVUPD (SI), Y12; \
	VMOVUPD 32(SI), Y13; \
	VMOVUPD 64(SI), Y14; \
	VMOVUPD 96(SI), Y15; \
	ADDQ $128, SI

#define STORE1 \
	VMOVUPD Y8, (SI); \
	ADDQ $32, SI

#define LOAD1 \
	VMOVUPD (SI), Y8; \
	ADDQ $32, SI

// ROWS4 and ROWS16 set up a kernel over 4 or 16 rows at R10, cols (CX)
// long — the arguments are loaded in each TEXT, where vet checks them: row
// pointers, strides, zeroed accumulators, and AX the number of column blocks,
// ZF set when there are none (nothing after the SHRQ writes the flags).
#define ROWS4 \
	MOVQ CX, R8; \
	SHLQ $3, R8; \
	LEAQ (R8)(R8*2), R9; \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	MOVQ CX, AX; \
	SHRQ $2, AX

#define ROWS16 \
	ROWS4; \
	LEAQ (R10)(R8*4), R11; \
	LEAQ (R11)(R8*4), R12; \
	LEAQ (R12)(R8*4), R13

#define BROADCAST4 \
	VBROADCASTSD (DX), Y4; \
	VBROADCASTSD 8(DX), Y5; \
	VBROADCASTSD 16(DX), Y6; \
	VBROADCASTSD 24(DX), Y7

#define END16 \
	VMOVUPD Y0, (DI); \
	VMOVUPD Y1, 32(DI); \
	VMOVUPD Y2, 64(DI); \
	VMOVUPD Y3, 96(DI); \
	VZEROUPPER

// func rowDots16PackAVX2(dst, w, x *float64, cols int, panel *float64)
//
// dst[r] = dot(w[r*cols:(r+1)*cols], x[:cols]) for r in [0,16), storing the
// sixteen rows' panel to panel as it goes: four accumulators of four rows
// each, so four add chains are in flight.
TEXT ·rowDots16PackAVX2(SB), NOSPLIT, $0-40
	MOVQ panel+32(FP), SI
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R10
	MOVQ x+16(FP), DX
	MOVQ cols+24(FP), CX
	ROWS16
	JZ   ptail16

pblock16:
	BROADCAST4
	GATHER4(R10)
	STORE4
	MACC4(Y0)
	GATHER4(R11)
	STORE4
	MACC4(Y1)
	GATHER4(R12)
	STORE4
	MACC4(Y2)
	GATHER4(R13)
	STORE4
	MACC4(Y3)
	ADDQ $32, DX
	DECQ AX
	JNZ  pblock16

ptail16:
	ANDQ $3, CX
	JZ   pdone16

pcol16:
	VBROADCASTSD (DX), Y4
	GATHER1(R10)
	STORE1
	MACC1(Y0)
	GATHER1(R11)
	STORE1
	MACC1(Y1)
	GATHER1(R12)
	STORE1
	MACC1(Y2)
	GATHER1(R13)
	STORE1
	MACC1(Y3)
	ADDQ $8, DX
	DECQ CX
	JNZ  pcol16

pdone16:
	END16
	RET

// func rowDots16PackedAVX2(dst, w, x *float64, cols int)
//
// The same sums over the panel rowDots16PackAVX2 stored, which w points at.
TEXT ·rowDots16PackedAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R10
	MOVQ x+16(FP), DX
	MOVQ cols+24(FP), CX
	ROWS16
	MOVQ R10, SI
	JZ   qtail16

qblock16:
	BROADCAST4
	LOAD4
	MACC4(Y0)
	LOAD4
	MACC4(Y1)
	LOAD4
	MACC4(Y2)
	LOAD4
	MACC4(Y3)
	ADDQ $32, DX
	DECQ AX
	JNZ  qblock16

qtail16:
	ANDQ $3, CX
	JZ   qdone16

qcol16:
	VBROADCASTSD (DX), Y4
	LOAD1
	MACC1(Y0)
	LOAD1
	MACC1(Y1)
	LOAD1
	MACC1(Y2)
	LOAD1
	MACC1(Y3)
	ADDQ $8, DX
	DECQ CX
	JNZ  qcol16

qdone16:
	END16
	RET

// func rowDots4PackAVX2(dst, w, x *float64, cols int, panel *float64)
//
// The four-row tail of rowDots16PackAVX2: one accumulator.
TEXT ·rowDots4PackAVX2(SB), NOSPLIT, $0-40
	MOVQ panel+32(FP), SI
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R10
	MOVQ x+16(FP), DX
	MOVQ cols+24(FP), CX
	ROWS4
	JZ   ptail4

pblock4:
	BROADCAST4
	GATHER4(R10)
	STORE4
	MACC4(Y0)
	ADDQ $32, DX
	DECQ AX
	JNZ  pblock4

ptail4:
	ANDQ $3, CX
	JZ   pdone4

pcol4:
	VBROADCASTSD (DX), Y4
	GATHER1(R10)
	STORE1
	MACC1(Y0)
	ADDQ $8, DX
	DECQ CX
	JNZ  pcol4

pdone4:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func rowDots4PackedAVX2(dst, w, x *float64, cols int)
//
// The same sums over the panel rowDots4PackAVX2 stored, which w points at.
TEXT ·rowDots4PackedAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), R10
	MOVQ x+16(FP), DX
	MOVQ cols+24(FP), CX
	ROWS4
	MOVQ R10, SI
	JZ   qtail4

qblock4:
	BROADCAST4
	LOAD4
	MACC4(Y0)
	ADDQ $32, DX
	DECQ AX
	JNZ  qblock4

qtail4:
	ANDQ $3, CX
	JZ   qdone4

qcol4:
	VBROADCASTSD (DX), Y4
	LOAD1
	MACC1(Y0)
	ADDQ $8, DX
	DECQ CX
	JNZ  qcol4

qdone4:
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// Window kernel. Here a lane is a window, not a row: the input arrives
// time-minor (xT[k*tp+t] = x_t[k]), so column k of four windows is one
// aligned-or-not 32-byte load and the weight w[r][k] a broadcast — the matrix
// is read where it lies, row-major, and nothing is transposed. ROWn adds one
// weight's products to the accumulators of n lane groups (4n windows) whose
// column starts at R11: the weight is the first source of the VMULPD, as r is
// of dot's r*x[j], the accumulator the first source of the VADDPD.
#define ROW1(W, A0) \
	VBROADCASTSD W, Y12; \
	VMULPD (R11), Y12, Y13; \
	VADDPD Y13, A0, A0

#define ROW2(W, A0, A1) \
	VBROADCASTSD W, Y12; \
	VMULPD (R11), Y12, Y13; \
	VMULPD 32(R11), Y12, Y14; \
	VADDPD Y13, A0, A0; \
	VADDPD Y14, A1, A1

#define ROW3(W, A0, A1, A2) \
	VBROADCASTSD W, Y12; \
	VMULPD (R11), Y12, Y13; \
	VMULPD 32(R11), Y12, Y14; \
	VMULPD 64(R11), Y12, Y15; \
	VADDPD Y13, A0, A0; \
	VADDPD Y14, A1, A1; \
	VADDPD Y15, A2, A2

// func windowDotsAVX2(dst, w, xT *float64, rows, cols, tp int)
//
// dst[r*tp+t] = dot(w[r*cols:(r+1)*cols], x_t) for r in [0,rows) and t in
// [0,tp), tp a multiple of four, x_t[k] = xT[k*tp+t]: every (row, window)
// accumulator starts at +0 and adds its products in ascending k. Rows go four
// to a panel — four rows by three lane groups is twelve accumulators, plus
// the broadcast and three products all sixteen registers — then one at a
// time; a panel's lane groups go three, then two or one, to a pass down the
// columns, so a series longer than twelve windows re-reads its panel from L1.
// R8 and R9 are the byte strides of w and of xT/dst, R14 and R13 three times
// them. While a panel is summed its pass prefetches the panel below it, 32
// bytes a column, which is that panel's size exactly; below the last panel
// lies whatever follows the matrix, which a prefetch may touch.
TEXT ·windowDotsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ rows+24(FP), R12
	MOVQ cols+32(FP), R8
	MOVQ tp+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (R8)(R8*2), R14
	LEAQ (R9)(R9*2), R13

wdPanel:
	CMPQ R12, $4
	JLT  wdRow
	MOVQ xT+16(FP), DX
	MOVQ DI, AX
	MOVQ tp+40(FP), BX
	SHRQ $2, BX

wdPanel3:
	CMPQ BX, $3
	JLT  wdPanel2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ cols+32(FP), CX
	LEAQ (SI)(R8*4), R15

wdPanel3k:
	ROW3((R10), Y0, Y1, Y2)
	ROW3((R10)(R8*1), Y3, Y4, Y5)
	ROW3((R10)(R8*2), Y6, Y7, Y8)
	ROW3((R10)(R14*1), Y9, Y10, Y11)
	PREFETCHT0 (R15)
	ADDQ $32, R15
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ CX
	JNZ  wdPanel3k
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, (AX)(R9*1)
	VMOVUPD Y4, 32(AX)(R9*1)
	VMOVUPD Y5, 64(AX)(R9*1)
	VMOVUPD Y6, (AX)(R9*2)
	VMOVUPD Y7, 32(AX)(R9*2)
	VMOVUPD Y8, 64(AX)(R9*2)
	VMOVUPD Y9, (AX)(R13*1)
	VMOVUPD Y10, 32(AX)(R13*1)
	VMOVUPD Y11, 64(AX)(R13*1)
	ADDQ $96, DX
	ADDQ $96, AX
	SUBQ $3, BX
	JMP  wdPanel3

wdPanel2:
	CMPQ BX, $2
	JLT  wdPanel1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ cols+32(FP), CX
	LEAQ (SI)(R8*4), R15

wdPanel2k:
	ROW2((R10), Y0, Y1)
	ROW2((R10)(R8*1), Y2, Y3)
	ROW2((R10)(R8*2), Y4, Y5)
	ROW2((R10)(R14*1), Y6, Y7)
	PREFETCHT0 (R15)
	ADDQ $32, R15
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ CX
	JNZ  wdPanel2k
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, (AX)(R9*1)
	VMOVUPD Y3, 32(AX)(R9*1)
	VMOVUPD Y4, (AX)(R9*2)
	VMOVUPD Y5, 32(AX)(R9*2)
	VMOVUPD Y6, (AX)(R13*1)
	VMOVUPD Y7, 32(AX)(R13*1)
	JMP  wdPanelNext

wdPanel1:
	TESTQ BX, BX
	JZ   wdPanelNext
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ cols+32(FP), CX
	LEAQ (SI)(R8*4), R15

wdPanel1k:
	ROW1((R10), Y0)
	ROW1((R10)(R8*1), Y1)
	ROW1((R10)(R8*2), Y2)
	ROW1((R10)(R14*1), Y3)
	PREFETCHT0 (R15)
	ADDQ $32, R15
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ CX
	JNZ  wdPanel1k
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, (AX)(R9*1)
	VMOVUPD Y2, (AX)(R9*2)
	VMOVUPD Y3, (AX)(R13*1)

wdPanelNext:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R12
	JMP  wdPanel

wdRow:
	TESTQ R12, R12
	JZ   wdDone
	MOVQ xT+16(FP), DX
	MOVQ DI, AX
	MOVQ tp+40(FP), BX
	SHRQ $2, BX

wdRow3:
	CMPQ BX, $3
	JLT  wdRow2
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ cols+32(FP), CX

wdRow3k:
	ROW3((R10), Y0, Y1, Y2)
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ CX
	JNZ  wdRow3k
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	ADDQ $96, DX
	ADDQ $96, AX
	SUBQ $3, BX
	JMP  wdRow3

wdRow2:
	CMPQ BX, $2
	JLT  wdRow1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ cols+32(FP), CX

wdRow2k:
	ROW2((R10), Y0, Y1)
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ CX
	JNZ  wdRow2k
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	JMP  wdRowNext

wdRow1:
	TESTQ BX, BX
	JZ   wdRowNext
	VXORPD Y0, Y0, Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ cols+32(FP), CX

wdRow1k:
	ROW1((R10), Y0)
	ADDQ $8, R10
	ADDQ R9, R11
	DECQ CX
	JNZ  wdRow1k
	VMOVUPD Y0, (AX)

wdRowNext:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ R12
	JMP  wdRow

wdDone:
	VZEROUPPER
	RET

// func gateRowsAVX2(dst, gate, xT *float64, rows *int, n, tp int)
//
// dst[k*tp+t] = gate[k]·xT[rows[k]*tp+t] for k in [0,n) and t in [0,tp), tp
// a multiple of four: the mask's σ(m) ⊙ x over the rows of a block of
// windows, laid out as the window kernel reads it, that an expert reads. A
// row's gate is one broadcast and the first source of the VMULPD, as m is of
// the Go loop's m*x; one rounding either way. Sixteen windows a step, then
// four.
TEXT ·gateRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ gate+8(FP), SI
	MOVQ xT+16(FP), BX
	MOVQ rows+24(FP), R10
	MOVQ n+32(FP), R8
	MOVQ tp+40(FP), R9
	MOVQ R9, R11
	SHLQ $3, R11 // a row's bytes

gateRow:
	MOVQ  (R10), AX
	IMULQ R11, AX
	LEAQ  (BX)(AX*1), DX
	ADDQ  $8, R10
	VBROADCASTSD (SI), Y0
	MOVQ R9, CX

gate16:
	CMPQ CX, $16
	JLT  gate4
	VMULPD (DX), Y0, Y1
	VMULPD 32(DX), Y0, Y2
	VMULPD 64(DX), Y0, Y3
	VMULPD 96(DX), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, DX
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  gate16

gate4:
	TESTQ CX, CX
	JZ   gateNext
	VMULPD (DX), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  gate4

gateNext:
	ADDQ $8, SI
	DECQ R8
	JNZ  gateRow
	VZEROUPPER
	RET

// Backward and optimizer kernels. Here every lane is a column — one memory
// location of the destination — whose accumulator is loaded once, receives
// its addends in the Go loop's order (rows ascending in colSumsAVX2, terms in
// table order in outerSumsAVX2) and is stored once; an addend whose scale is
// ±0 is skipped, as the Go loops skip it. Columns go 32 to a pass, then four,
// then the cols%4 tail through tailMask: a masked lane reads as zero, is
// never stored, and touches no memory, so the tail never reads past a row.

DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $48

// TAILMASK leaves in Y14 a mask of the CX (1..3) low lanes; clobbers AX.
#define TAILMASK \
	LEAQ tailMask<>+24(SB), AX; \
	SHLQ $3, CX; \
	SUBQ CX, AX; \
	VMOVDQU (AX), Y14

#define LOAD8(P) \
	VMOVUPD (P), Y0; \
	VMOVUPD 32(P), Y1; \
	VMOVUPD 64(P), Y2; \
	VMOVUPD 96(P), Y3; \
	VMOVUPD 128(P), Y4; \
	VMOVUPD 160(P), Y5; \
	VMOVUPD 192(P), Y6; \
	VMOVUPD 224(P), Y7

#define STORE8(P) \
	VMOVUPD Y0, (P); \
	VMOVUPD Y1, 32(P); \
	VMOVUPD Y2, 64(P); \
	VMOVUPD Y3, 96(P); \
	VMOVUPD Y4, 128(P); \
	VMOVUPD Y5, 160(P); \
	VMOVUPD Y6, 192(P); \
	VMOVUPD Y7, 224(P)

// AXPY32 adds Y8·P[0..32) to the accumulators Y0..Y7: a VMULPD and a VADDPD
// per lane group, the accumulator first, never fused.
#define AXPY32(P) \
	VMULPD (P), Y8, Y9; \
	VMULPD 32(P), Y8, Y10; \
	VMULPD 64(P), Y8, Y11; \
	VMULPD 96(P), Y8, Y12; \
	VADDPD Y9, Y0, Y0; \
	VADDPD Y10, Y1, Y1; \
	VADDPD Y11, Y2, Y2; \
	VADDPD Y12, Y3, Y3; \
	VMULPD 128(P), Y8, Y9; \
	VMULPD 160(P), Y8, Y10; \
	VMULPD 192(P), Y8, Y11; \
	VMULPD 224(P), Y8, Y12; \
	VADDPD Y9, Y4, Y4; \
	VADDPD Y10, Y5, Y5; \
	VADDPD Y11, Y6, Y6; \
	VADDPD Y12, Y7, Y7

// func colSumsAVX2(acc, w, d *float64, rows, cols int)
//
// acc[j] += Σ_i d[i]·w[i*cols+j] for j in [0,cols), i ascending over the rows
// whose d[i] is not ±0: the transposed product of a mat-vec adjoint. The
// accumulators stay in registers down the rows of a column block.
TEXT ·colSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ d+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), CX
	MOVQ CX, R9
	SHLQ $3, R9

cs32:
	CMPQ CX, $32
	JLT  cs4
	LOAD8(DI)
	MOVQ SI, R10
	XORQ R11, R11

cs32row:
	MOVQ (DX)(R11*8), AX
	ADDQ AX, AX // the sign shifts out: zero iff d[i] is ±0
	JZ   cs32next
	VBROADCASTSD (DX)(R11*8), Y8
	AXPY32(R10)

cs32next:
	ADDQ R9, R10
	INCQ R11
	CMPQ R11, R8
	JLT  cs32row
	STORE8(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, CX
	JMP  cs32

cs4:
	CMPQ CX, $4
	JLT  csTail
	VMOVUPD (DI), Y0
	MOVQ SI, R10
	XORQ R11, R11

cs4row:
	MOVQ (DX)(R11*8), AX
	ADDQ AX, AX
	JZ   cs4next
	VBROADCASTSD (DX)(R11*8), Y8
	VMULPD (R10), Y8, Y9
	VADDPD Y9, Y0, Y0

cs4next:
	ADDQ R9, R10
	INCQ R11
	CMPQ R11, R8
	JLT  cs4row
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, CX
	JMP  cs4

csTail:
	TESTQ CX, CX
	JZ   csDone
	TAILMASK
	VMASKMOVPD (DI), Y14, Y0
	XORQ R11, R11

csTailRow:
	MOVQ (DX)(R11*8), AX
	ADDQ AX, AX
	JZ   csTailNext
	VBROADCASTSD (DX)(R11*8), Y8
	VMASKMOVPD (SI), Y14, Y9
	VMULPD Y9, Y8, Y9
	VADDPD Y9, Y0, Y0

csTailNext:
	ADDQ R9, SI
	INCQ R11
	CMPQ R11, R8
	JLT  csTailRow
	VMASKMOVPD Y0, Y14, (DI)

csDone:
	VZEROUPPER
	RET

// func outerSumsAVX2(grad *float64, rows, cols int, terms *outer, n int)
//
// grad[i*cols+j] += Σ_t δ_t[i]·x_t[j] over the n terms in table order,
// skipping a term whose δ_t[i] is ±0: a weight gradient formed from all of a
// chunk's steps at once. A term is an outer{delta, x []float64}: 48 bytes,
// the data pointers at 0 and 24. BX is the column block's byte offset into a
// row; each block walks the rows, each row the terms.
TEXT ·outerSumsAVX2(SB), NOSPLIT, $0-40
	MOVQ grad+0(FP), DI
	MOVQ rows+8(FP), R8
	MOVQ cols+16(FP), CX
	MOVQ CX, R9
	SHLQ $3, R9
	XORQ BX, BX

os32:
	CMPQ CX, $32
	JLT  os4
	MOVQ DI, R10
	XORQ R11, R11

os32row:
	LOAD8(R10)
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), R13

os32term:
	MOVQ (R12), SI
	MOVQ (SI)(R11*8), AX
	ADDQ AX, AX
	JZ   os32next
	VBROADCASTSD (SI)(R11*8), Y8
	MOVQ 24(R12), DX
	ADDQ BX, DX
	AXPY32(DX)

os32next:
	ADDQ $48, R12
	DECQ R13
	JNZ  os32term
	STORE8(R10)
	ADDQ R9, R10
	INCQ R11
	CMPQ R11, R8
	JLT  os32row
	ADDQ $256, DI
	ADDQ $256, BX
	SUBQ $32, CX
	JMP  os32

os4:
	CMPQ CX, $4
	JLT  osTail
	MOVQ DI, R10
	XORQ R11, R11

os4row:
	VMOVUPD (R10), Y0
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), R13

os4term:
	MOVQ (R12), SI
	MOVQ (SI)(R11*8), AX
	ADDQ AX, AX
	JZ   os4next
	VBROADCASTSD (SI)(R11*8), Y8
	MOVQ 24(R12), DX
	VMULPD (DX)(BX*1), Y8, Y9
	VADDPD Y9, Y0, Y0

os4next:
	ADDQ $48, R12
	DECQ R13
	JNZ  os4term
	VMOVUPD Y0, (R10)
	ADDQ R9, R10
	INCQ R11
	CMPQ R11, R8
	JLT  os4row
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  os4

osTail:
	TESTQ CX, CX
	JZ   osDone
	TAILMASK
	XORQ R11, R11

osTailRow:
	VMASKMOVPD (DI), Y14, Y0
	MOVQ terms+24(FP), R12
	MOVQ n+32(FP), R13

osTailTerm:
	MOVQ (R12), SI
	MOVQ (SI)(R11*8), AX
	ADDQ AX, AX
	JZ   osTailNext
	VBROADCASTSD (SI)(R11*8), Y8
	MOVQ 24(R12), DX
	VMASKMOVPD (DX)(BX*1), Y14, Y9
	VMULPD Y9, Y8, Y9
	VADDPD Y9, Y0, Y0

osTailNext:
	ADDQ $48, R12
	DECQ R13
	JNZ  osTailTerm
	VMASKMOVPD Y0, Y14, (DI)
	ADDQ R9, DI
	INCQ R11
	CMPQ R11, R8
	JLT  osTailRow

osDone:
	VZEROUPPER
	RET

// func peerDotsAVX2(dots, dy *float64, n, hidden, rows int, base *float64, stride int)
//
// dots[k*n+t] = Σ_j dy[j*n+t]·base[k*stride+j*n+t] for k in [0,rows), rows
// a multiple of four, t in [0,n&^3), j in [0,hidden), hidden > 0: the
// adjoint of the attention sum over a block of n windows, window-minor,
// before it is added to the weights' gradient. Lanes are windows, as in the
// window kernel, so every load is a plain one: each lane is one (row, window)
// accumulator that starts at +0 and adds its products in ascending j like the
// Go loop. A pass takes four consecutive rows (AX, BX, R13, R14 point at
// them; R15 at the next four) by two lane groups — eight independent add
// chains, each dy load serving all four rows — then by one; R11 walks the
// units, R8 bytes apart, from the pass's first window (DX).
TEXT ·peerDotsAVX2(SB), NOSPLIT, $0-56
	MOVQ dots+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ n+16(FP), R8
	SHLQ $3, R8
	MOVQ rows+32(FP), CX
	MOVQ base+40(FP), R15

pdQuad:
	MOVQ stride+48(FP), R12
	SHLQ $3, R12
	MOVQ R15, AX
	LEAQ (AX)(R12*1), BX
	LEAQ (BX)(R12*1), R13
	LEAQ (R13)(R12*1), R14
	LEAQ (R14)(R12*1), R15
	MOVQ n+16(FP), R10
	ANDQ $-4, R10
	SHLQ $3, R10
	XORQ DX, DX

pdPass8:
	LEAQ 64(DX), R9
	CMPQ R9, R10
	JGT  pdPass4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ DX, R11
	MOVQ hidden+24(FP), R12

pdUnit8:
	VMOVUPD (SI)(R11*1), Y8
	VMOVUPD 32(SI)(R11*1), Y9
	VMULPD (AX)(R11*1), Y8, Y10
	VMULPD 32(AX)(R11*1), Y9, Y11
	VADDPD Y10, Y0, Y0
	VADDPD Y11, Y1, Y1
	VMULPD (BX)(R11*1), Y8, Y10
	VMULPD 32(BX)(R11*1), Y9, Y11
	VADDPD Y10, Y2, Y2
	VADDPD Y11, Y3, Y3
	VMULPD (R13)(R11*1), Y8, Y10
	VMULPD 32(R13)(R11*1), Y9, Y11
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	VMULPD (R14)(R11*1), Y8, Y10
	VMULPD 32(R14)(R11*1), Y9, Y11
	VADDPD Y10, Y6, Y6
	VADDPD Y11, Y7, Y7
	ADDQ R8, R11
	DECQ R12
	JNZ  pdUnit8
	LEAQ (DI)(DX*1), R9
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, (R9)(R8*1)
	VMOVUPD Y3, 32(R9)(R8*1)
	VMOVUPD Y4, (R9)(R8*2)
	VMOVUPD Y5, 32(R9)(R8*2)
	ADDQ R8, R9
	VMOVUPD Y6, (R9)(R8*2)
	VMOVUPD Y7, 32(R9)(R8*2)
	ADDQ $64, DX
	JMP  pdPass8

pdPass4:
	LEAQ 32(DX), R9
	CMPQ R9, R10
	JGT  pdNext
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ DX, R11
	MOVQ hidden+24(FP), R12

pdUnit4:
	VMOVUPD (SI)(R11*1), Y8
	VMULPD (AX)(R11*1), Y8, Y10
	VADDPD Y10, Y0, Y0
	VMULPD (BX)(R11*1), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD (R13)(R11*1), Y8, Y10
	VADDPD Y10, Y2, Y2
	VMULPD (R14)(R11*1), Y8, Y10
	VADDPD Y10, Y3, Y3
	ADDQ R8, R11
	DECQ R12
	JNZ  pdUnit4
	LEAQ (DI)(DX*1), R9
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, (R9)(R8*1)
	VMOVUPD Y2, (R9)(R8*2)
	ADDQ R8, R9
	VMOVUPD Y3, (R9)(R8*2)

pdNext:
	LEAQ (DI)(R8*4), DI
	SUBQ $4, CX
	JNZ  pdQuad
	VZEROUPPER
	RET

// func adamAVX2(data, grad, m, v *float64, n int, h *[8]float64)
//
// One Adam update of n parameters, n a multiple of four, with h = {β1, 1−β1,
// β2, 1−β2, c1, c2, lr, ε}: the operations of the Go loop in AdamUpdate, one
// VMULPD/VADDPD/VDIVPD/VSQRTPD (each correctly rounded, like its scalar
// form) per Go operator, in the Go expression's order; grad is zeroed.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ data+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ h+40(FP), AX
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	VXORPD Y7, Y7, Y7

adamLoop:
	VMOVUPD (SI), Y0           // g
	VMULPD (DX), Y8, Y1        // β1·m
	VMULPD Y0, Y9, Y2          // (1−β1)·g
	VADDPD Y2, Y1, Y1          // m'
	VMOVUPD Y1, (DX)
	VMULPD (R8), Y10, Y2       // β2·v
	VMULPD Y0, Y11, Y3         // (1−β2)·g
	VMULPD Y0, Y3, Y3          // ·g
	VADDPD Y3, Y2, Y2          // v'
	VMOVUPD Y2, (R8)
	VDIVPD Y12, Y1, Y1         // m̂ = m'/c1
	VDIVPD Y13, Y2, Y2         // v̂ = v'/c2
	VSQRTPD Y2, Y2
	VADDPD Y15, Y2, Y2         // √v̂ + ε
	VMULPD Y1, Y14, Y1         // lr·m̂
	VDIVPD Y2, Y1, Y1
	VMOVUPD (DI), Y3
	VSUBPD Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	VMOVUPD Y7, (SI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R8
	SUBQ $4, CX
	JNZ  adamLoop
	VZEROUPPER
	RET

// Gate activations. The constants, eight bytes each, are broadcast where they
// are used; those of the exponential are math.archExp's (exp_amd64.s), those
// of the hyperbolic tangent math.tanh's tanhP, tanhQ and 0.5·MAXLOG.
DATA gatec<>+0(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA gatec<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA gatec<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA gatec<>+24(SB)/8, $0.0625
DATA gatec<>+32(SB)/8, $2.4801587301587301587e-5
DATA gatec<>+40(SB)/8, $1.9841269841269841270e-4
DATA gatec<>+48(SB)/8, $1.3888888888888888889e-3
DATA gatec<>+56(SB)/8, $8.3333333333333333333e-3
DATA gatec<>+64(SB)/8, $4.1666666666666666667e-2
DATA gatec<>+72(SB)/8, $1.6666666666666666667e-1
DATA gatec<>+80(SB)/8, $0.5
DATA gatec<>+88(SB)/8, $1.0
DATA gatec<>+96(SB)/8, $2.0
DATA gatec<>+104(SB)/8, $0x3FF // exponent bias
DATA gatec<>+112(SB)/8, $0x8000000000000000 // sign bit
DATA gatec<>+120(SB)/8, $-700.0
DATA gatec<>+128(SB)/8, $0.625
DATA gatec<>+136(SB)/8, $44.014845965556527147994 // 0.5·MAXLOG
DATA gatec<>+144(SB)/8, $-9.64399179425052238628e-1 // tanhP
DATA gatec<>+152(SB)/8, $-9.92877231001918586564e1
DATA gatec<>+160(SB)/8, $-1.61468768441708447952e3
DATA gatec<>+168(SB)/8, $1.12811678491632931402e2 // tanhQ
DATA gatec<>+176(SB)/8, $2.23548839060100448583e3
DATA gatec<>+184(SB)/8, $4.84406305325125486048e3
GLOBL gatec<>+0(SB), RODATA, $192

// EXPCONSTS loads the constants EXP4 keeps in registers: Y8 = LN2U, Y9 =
// LN2L, Y10..Y12 and Y15 = 1/7!, 1/6!, 1/5!, 1/4!, Y13 = 1, Y14 = 2.
#define EXPCONSTS \
	VBROADCASTSD gatec<>+8(SB), Y8; \
	VBROADCASTSD gatec<>+16(SB), Y9; \
	VBROADCASTSD gatec<>+40(SB), Y10; \
	VBROADCASTSD gatec<>+48(SB), Y11; \
	VBROADCASTSD gatec<>+56(SB), Y12; \
	VBROADCASTSD gatec<>+88(SB), Y13; \
	VBROADCASTSD gatec<>+96(SB), Y14; \
	VBROADCASTSD gatec<>+64(SB), Y15

// EXP4 replaces the four arguments in Y1 with their exponentials, clobbering
// Y2, Y3 and Y7. It is the FMA path of math.archExp with a packed instruction
// for each scalar one, same operands, same order: n = round(x·log2e) through
// the int32 converts, r = (x − n·LN2U − n·LN2L)/16 by two fused
// negate-multiply-adds, the eight-term Horner chain of fused multiply-adds,
// four squarings r ← r·(r+2), the last fused with the +1, and the scaling by
// 2ⁿ built in the exponent field. archExp's branches for a non-finite
// argument, overflow and a subnormal result have no twin here: the caller
// keeps every lane it uses inside [−708, 709].
#define EXP4 \
	VBROADCASTSD gatec<>+0(SB), Y2; \
	VMULPD Y1, Y2, Y2; \
	VCVTPD2DQY Y2, X3; \
	VCVTDQ2PD X3, Y2; \
	VFNMADD231PD Y8, Y2, Y1; \
	VFNMADD231PD Y9, Y2, Y1; \
	VBROADCASTSD gatec<>+24(SB), Y7; \
	VMULPD Y7, Y1, Y1; \
	VBROADCASTSD gatec<>+32(SB), Y2; \
	VFMADD213PD Y10, Y1, Y2; \
	VFMADD213PD Y11, Y1, Y2; \
	VFMADD213PD Y12, Y1, Y2; \
	VFMADD213PD Y15, Y1, Y2; \
	VBROADCASTSD gatec<>+72(SB), Y7; \
	VFMADD213PD Y7, Y1, Y2; \
	VBROADCASTSD gatec<>+80(SB), Y7; \
	VFMADD213PD Y7, Y1, Y2; \
	VFMADD213PD Y13, Y1, Y2; \
	VMULPD Y2, Y1, Y1; \
	VADDPD Y14, Y1, Y2; \
	VMULPD Y2, Y1, Y1; \
	VADDPD Y14, Y1, Y2; \
	VMULPD Y2, Y1, Y1; \
	VADDPD Y14, Y1, Y2; \
	VMULPD Y2, Y1, Y1; \
	VADDPD Y14, Y1, Y2; \
	VFMADD213PD Y13, Y2, Y1; \
	VPMOVSXDQ X3, Y3; \
	VPBROADCASTQ gatec<>+104(SB), Y7; \
	VPADDQ Y7, Y3, Y3; \
	VPSLLQ $52, Y3, Y3; \
	VMULPD Y3, Y1, Y1

// func sigmoidsAVX2(x *float64, n int) int
//
// Replaces x[i] with stableSigmoid(x[i]), four at a time, n a multiple of
// four: z = exp(−|x|), then z/(1+z) where x is negative and 1/(1+z)
// elsewhere, one division either way. It stops in front of the first four
// that hold a NaN or a magnitude above 700 — exp(−|x|) would leave the
// range EXP4 covers — and returns how many it replaced.
TEXT ·sigmoidsAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	EXPCONSTS

sigLoop:
	VMOVUPD (SI)(AX*8), Y0
	VBROADCASTSD gatec<>+112(SB), Y1
	VORPD Y0, Y1, Y1           // −|x|
	VBROADCASTSD gatec<>+120(SB), Y2
	VCMPPD $0x09, Y2, Y1, Y2   // not −|x| ≥ −700: too large, or NaN
	VMOVMSKPD Y2, DX
	TESTL DX, DX
	JNZ  sigDone
	EXP4
	VADDPD Y1, Y13, Y2         // 1 + z
	// The sign bit of x picks the numerator; x = −0 takes z, which is 1.
	VBLENDVPD Y0, Y1, Y13, Y3
	VDIVPD Y2, Y3, Y3
	VMOVUPD Y3, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  sigLoop

sigDone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func tanhsAVX2(x *float64, n int) int
//
// Replaces x[i] with math.Tanh(x[i]), four at a time, n a multiple of four.
// Every lane computes both of math.tanh's forms, each Go operator a separate
// packed instruction in the expression's order — the compiler does not
// contract them on amd64 — and then takes the one its |x| selects:
// x + x·s·P(s)/Q(s) with s = x², 1 − 2/(exp(2|x|)+1) with the sign of x from
// 0.625 upwards, ±1 above 0.5·MAXLOG, and x itself where x is ±0 (the
// rational form would turn −0 into +0). A form computed outside its range
// may be anything; it is not selected. It stops in front of the first four
// that hold a NaN, whose payload no blend would carry, and returns how many
// it replaced.
TEXT ·tanhsAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX
	EXPCONSTS

tanhLoop:
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD $3, Y0, Y0, Y1      // unordered with itself: NaN
	VMOVMSKPD Y1, DX
	TESTL DX, DX
	JNZ  tanhDone
	VBROADCASTSD gatec<>+112(SB), Y7
	VANDNPD Y0, Y7, Y4         // |x|
	VANDPD Y0, Y7, Y5          // the sign of x
	VADDPD Y4, Y4, Y1          // 2|x|
	EXP4
	VADDPD Y13, Y1, Y1         // s + 1
	VDIVPD Y1, Y14, Y1         // 2/(s+1)
	VSUBPD Y1, Y13, Y1         // 1 − 2/(s+1)
	VXORPD Y5, Y1, Y1          // negated where x < 0
	VMULPD Y0, Y0, Y2          // s = x·x
	VBROADCASTSD gatec<>+144(SB), Y3
	VMULPD Y2, Y3, Y3          // P0·s
	VBROADCASTSD gatec<>+152(SB), Y7
	VADDPD Y7, Y3, Y3          // + P1
	VMULPD Y2, Y3, Y3          // ·s
	VBROADCASTSD gatec<>+160(SB), Y7
	VADDPD Y7, Y3, Y3          // + P2
	VBROADCASTSD gatec<>+168(SB), Y6
	VADDPD Y6, Y2, Y6          // s + Q0
	VMULPD Y2, Y6, Y6          // ·s
	VBROADCASTSD gatec<>+176(SB), Y7
	VADDPD Y7, Y6, Y6          // + Q1
	VMULPD Y2, Y6, Y6          // ·s
	VBROADCASTSD gatec<>+184(SB), Y7
	VADDPD Y7, Y6, Y6          // + Q2
	VMULPD Y2, Y0, Y2          // x·s
	VMULPD Y3, Y2, Y2          // ·P(s)
	VDIVPD Y6, Y2, Y2          // /Q(s)
	VADDPD Y2, Y0, Y2          // x + …
	VBROADCASTSD gatec<>+128(SB), Y7
	VCMPPD $0x1D, Y7, Y4, Y3   // |x| ≥ 0.625
	VBLENDVPD Y3, Y1, Y2, Y2
	VBROADCASTSD gatec<>+136(SB), Y7
	VCMPPD $0x1E, Y7, Y4, Y3   // |x| > 0.5·MAXLOG
	VORPD Y5, Y13, Y1          // ±1
	VBLENDVPD Y3, Y1, Y2, Y2
	VXORPD Y3, Y3, Y3
	VCMPPD $0, Y3, Y0, Y3      // x == 0
	VBLENDVPD Y3, Y0, Y2, Y2
	VMOVUPD Y2, (SI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JLT  tanhLoop

tanhDone:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET
