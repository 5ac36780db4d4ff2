//go:build amd64

#include "textflag.h"

// AVX2 GEMM micro-kernel. It accumulates with separate VMULPD / VADDPD
// (never FMA — scripts/docs_check.sh rejects the mnemonic in this file) in
// ascending-k order, making it bitwise identical to the scalar reference
// kernels.

// func cpuAVX2FMA() (avx2, fma bool)
TEXT ·cpuAVX2FMA(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, fma+1(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JL   novx
	MOVL $1, AX
	CPUID
	TESTL $(1<<27), CX // OSXSAVE
	JZ    novx
	TESTL $(1<<28), CX // AVX
	JZ    novx
	MOVL CX, R8
	XORL CX, CX
	XGETBV
	ANDL $6, AX        // XMM and YMM state enabled by the OS
	CMPL AX, $6
	JNE  novx
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX  // AVX2
	JZ    novx
	MOVB $1, avx2+0(FP)
	TESTL $(1<<12), R8 // FMA3
	JZ    novx
	MOVB $1, fma+1(FP)
novx:
	RET

// func gemmTile4x8(c *float64, ldc int, a *float64, ao1, ao2, ao3, aks int, b *float64, k int, zero bool)
//
// The 4×8 tile of C at c (row stride ldc) lives in Y0..Y7 — row r in
// Y(2r), Y(2r+1) — for the whole k loop. Each step loads the panel row
// b[l*8 : l*8+8] into Y8, Y9 once and, for each of the four A scalars
// a[l*aks], a[ao1+l*aks], a[ao2+l*aks], a[ao3+l*aks], broadcasts it and
// does one VMULPD and one VADDPD per accumulator: eight independent
// add chains, so the adds' latency hides behind each other. With zero set
// the accumulators start from +0 and C is only written.
TEXT ·gemmTile4x8(SB), NOSPLIT, $0-73
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ ao1+24(FP), R9
	MOVQ ao2+32(FP), R10
	MOVQ ao3+40(FP), R11
	MOVQ aks+48(FP), R12
	MOVQ b+56(FP), R8
	MOVQ k+64(FP), CX
	SHLQ $3, DX
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11
	SHLQ $3, R12
	LEAQ (DX)(DX*2), BX
	CMPB zero+72(FP), $0
	JNE  tzero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD 32(DI)(DX*1), Y3
	VMOVUPD (DI)(DX*2), Y4
	VMOVUPD 32(DI)(DX*2), Y5
	VMOVUPD (DI)(BX*1), Y6
	VMOVUPD 32(DI)(BX*1), Y7
	JMP  tcheck
tzero:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
tcheck:
	TESTQ CX, CX
	JZ    tstore
tloop:
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	VMULPD  Y8, Y10, Y12
	VADDPD  Y12, Y0, Y0
	VMULPD  Y9, Y10, Y13
	VADDPD  Y13, Y1, Y1
	VMULPD  Y8, Y11, Y14
	VADDPD  Y14, Y2, Y2
	VMULPD  Y9, Y11, Y15
	VADDPD  Y15, Y3, Y3
	VBROADCASTSD (SI)(R10*1), Y10
	VBROADCASTSD (SI)(R11*1), Y11
	VMULPD  Y8, Y10, Y12
	VADDPD  Y12, Y4, Y4
	VMULPD  Y9, Y10, Y13
	VADDPD  Y13, Y5, Y5
	VMULPD  Y8, Y11, Y14
	VADDPD  Y14, Y6, Y6
	VMULPD  Y9, Y11, Y15
	VADDPD  Y15, Y7, Y7
	ADDQ $64, R8
	ADDQ R12, SI
	DECQ CX
	JNZ  tloop
tstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (DI)(DX*2)
	VMOVUPD Y5, 32(DI)(DX*2)
	VMOVUPD Y6, (DI)(BX*1)
	VMOVUPD Y7, 32(DI)(BX*1)
	VZEROUPPER
	RET

// func packRows8(panel, b *float64, ldb, k int)
// panel[l*8 : l*8+8] = b[l*ldb : l*ldb+8] for l < k. The strip to the right
// is the next one packed and starts on the next cache line of the same row,
// so each step prefetches it (a prefetch past the end of B cannot fault).
TEXT ·packRows8(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	MOVQ k+24(FP), CX
	SHLQ $3, DX
	TESTQ CX, CX
	JZ   prdone
prloop:
	PREFETCHT0 64(SI)
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ DX, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  prloop
prdone:
	VZEROUPPER
	RET

// func packCols8(panel, b *float64, ldb, k int)
// panel[l*8+j] = b[j*ldb+l] for l < k, j < 8; k a positive multiple of 4.
// Each step transposes a 4×4 block of rows 0–3 and one of rows 4–7 in
// registers: a register takes two elements of one row in its low half and of
// the row two below in its high half, so that unpacking it against its
// neighbour row yields one panel half-row — four stores of four lanes where
// the scalar gather makes sixteen of one.
#define TRANSPOSE4(src, off) \
	VMOVUPD (src), X0; \
	VMOVUPD (src)(DX*1), X1; \
	VMOVUPD 16(src), X2; \
	VMOVUPD 16(src)(DX*1), X3; \
	VINSERTF128 $1, (src)(DX*2), Y0, Y0; \
	VINSERTF128 $1, (src)(BX*1), Y1, Y1; \
	VINSERTF128 $1, 16(src)(DX*2), Y2, Y2; \
	VINSERTF128 $1, 16(src)(BX*1), Y3, Y3; \
	VUNPCKLPD Y1, Y0, Y4; \
	VUNPCKHPD Y1, Y0, Y5; \
	VUNPCKLPD Y3, Y2, Y6; \
	VUNPCKHPD Y3, Y2, Y7; \
	VMOVUPD Y4, off(DI); \
	VMOVUPD Y5, (off+64)(DI); \
	VMOVUPD Y6, (off+128)(DI); \
	VMOVUPD Y7, (off+192)(DI)

TEXT ·packCols8(SB), NOSPLIT, $0-32
	MOVQ panel+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ ldb+16(FP), DX
	MOVQ k+24(FP), CX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), BX
	LEAQ (SI)(DX*4), R8
pcloop:
	TRANSPOSE4(SI, 0)
	TRANSPOSE4(R8, 32)
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $256, DI
	SUBQ $4, CX
	JNZ  pcloop
	VZEROUPPER
	RET
