//go:build amd64

#include "textflag.h"

// AVX2 elementwise kernels. Every output lane is an independent chain of
// individually rounded IEEE operations on the matching input lanes — no
// cross-lane accumulation — so vectorising changes nothing bitwise (see
// elem.go). VDIVPD and VSQRTPD are correctly rounded per lane, exactly like
// their scalar forms. Tails run scalar in the same per-element order.

// func vaddToPtr(dst, a, b *float64, n int)
// dst[i] = a[i] + b[i]
TEXT ·vaddToPtr(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   vat4
vatloop8:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VADDPD  (R8)(AX*8), Y0, Y0
	VADDPD  32(R8)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	DECQ DX
	JNZ  vatloop8
vat4:
	TESTQ $4, CX
	JZ    vat1
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (R8)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
vat1:
	CMPQ AX, CX
	JGE  vatdone
vatscalar:
	MOVSD (SI)(AX*8), X0
	ADDSD (R8)(AX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   vatscalar
vatdone:
	VZEROUPPER
	RET

// func vaddInPtr(dst, src *float64, n int)
// dst[i] += src[i]
TEXT ·vaddInPtr(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   vai4
vailoop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VADDPD  (SI)(AX*8), Y0, Y0
	VADDPD  32(SI)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	DECQ DX
	JNZ  vailoop8
vai4:
	TESTQ $4, CX
	JZ    vai1
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
vai1:
	CMPQ AX, CX
	JGE  vaidone
vaiscalar:
	MOVSD (DI)(AX*8), X0
	ADDSD (SI)(AX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   vaiscalar
vaidone:
	VZEROUPPER
	RET

// func vmulToPtr(dst, a, b *float64, n int)
// dst[i] = a[i] * b[i]
TEXT ·vmulToPtr(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   vmt4
vmtloop8:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y0, Y0
	VMULPD  32(R8)(AX*8), Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	DECQ DX
	JNZ  vmtloop8
vmt4:
	TESTQ $4, CX
	JZ    vmt1
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
vmt1:
	CMPQ AX, CX
	JGE  vmtdone
vmtscalar:
	MOVSD (SI)(AX*8), X0
	MULSD (R8)(AX*8), X0
	MOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   vmtscalar
vmtdone:
	VZEROUPPER
	RET

// func vscalePtr(dst *float64, n int, alpha float64)
// dst[i] *= alpha
TEXT ·vscalePtr(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD alpha+16(FP), Y7
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $3, DX
	JZ   vsc4
vscloop8:
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMULPD  Y7, Y0, Y0
	VMULPD  Y7, Y1, Y1
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ $8, AX
	DECQ DX
	JNZ  vscloop8
vsc4:
	TESTQ $4, CX
	JZ    vsc1
	VMOVUPD (DI)(AX*8), Y0
	VMULPD  Y7, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
vsc1:
	CMPQ AX, CX
	JGE  vscdone
vscscalar:
	MOVSD (DI)(AX*8), X0
	MULSD X7, X0
	MOVSD X0, (DI)(AX*8)
	INCQ AX
	CMPQ AX, CX
	JL   vscscalar
vscdone:
	VZEROUPPER
	RET

// func adamPtr(val, grad, m, v *float64, n int,
//              lr, b1, omb1, b2, omb2, eps, wd, bc1, bc2 float64)
// Per element (four lanes at a time, each lane the exact scalar sequence):
//   m    = b1*m + omb1*g
//   v    = b2*v + (omb2*g)*g
//   val -= lr * ((m/bc1)/(sqrt(v/bc2)+eps) + wd*val)
// n must be a multiple of 4; the Go wrapper runs the remainder scalar.
TEXT ·adamPtr(SB), NOSPLIT, $0-112
	MOVQ val+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD lr+40(FP), Y15
	VBROADCASTSD b1+48(FP), Y14
	VBROADCASTSD omb1+56(FP), Y13
	VBROADCASTSD b2+64(FP), Y12
	VBROADCASTSD omb2+72(FP), Y11
	VBROADCASTSD eps+80(FP), Y10
	VBROADCASTSD wd+88(FP), Y9
	VBROADCASTSD bc1+96(FP), Y8
	VBROADCASTSD bc2+104(FP), Y7
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $4, DX

	// Two independent four-lane chains per iteration: the divides and the
	// square root are the latency wall, and interleaving a second chain
	// keeps the divider unit fed while the first chain's results drain.
	// Each lane still sees the exact single-chain operation sequence.
adloop8:
	CMPQ AX, DX
	JGE  adloop4
	VMOVUPD (SI)(AX*8), Y0     // g_a
	VMOVUPD (R8)(AX*8), Y1     // m_a
	VMULPD  Y14, Y1, Y1        // b1*m
	VMULPD  Y13, Y0, Y3        // omb1*g
	VADDPD  Y3, Y1, Y1         // m'_a
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y2     // v_a
	VMULPD  Y12, Y2, Y2        // b2*v
	VMULPD  Y11, Y0, Y3        // omb2*g
	VMULPD  Y0, Y3, Y3         // (omb2*g)*g
	VADDPD  Y3, Y2, Y2         // v'_a
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD  Y8, Y1, Y1         // mh_a
	VDIVPD  Y7, Y2, Y2         // vh_a
	VSQRTPD Y2, Y2             // sqrt(vh_a)
	VMOVUPD 32(SI)(AX*8), Y4   // g_b
	VMOVUPD 32(R8)(AX*8), Y5   // m_b
	VMULPD  Y14, Y5, Y5
	VMULPD  Y13, Y4, Y3
	VADDPD  Y3, Y5, Y5         // m'_b
	VMOVUPD Y5, 32(R8)(AX*8)
	VMOVUPD 32(R9)(AX*8), Y6   // v_b
	VMULPD  Y12, Y6, Y6
	VMULPD  Y11, Y4, Y3
	VMULPD  Y4, Y3, Y3
	VADDPD  Y3, Y6, Y6         // v'_b
	VMOVUPD Y6, 32(R9)(AX*8)
	VDIVPD  Y8, Y5, Y5         // mh_b
	VDIVPD  Y7, Y6, Y6         // vh_b
	VSQRTPD Y6, Y6             // sqrt(vh_b)
	VADDPD  Y10, Y2, Y2        // +eps
	VDIVPD  Y2, Y1, Y1         // mh_a/(sqrt+eps)
	VMOVUPD (DI)(AX*8), Y0     // val_a
	VMULPD  Y9, Y0, Y3         // wd*val
	VADDPD  Y3, Y1, Y1
	VMULPD  Y15, Y1, Y1        // lr*update
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	VADDPD  Y10, Y6, Y6        // +eps
	VDIVPD  Y6, Y5, Y5         // mh_b/(sqrt+eps)
	VMOVUPD 32(DI)(AX*8), Y4   // val_b
	VMULPD  Y9, Y4, Y3
	VADDPD  Y3, Y5, Y5
	VMULPD  Y15, Y5, Y5
	VSUBPD  Y5, Y4, Y4
	VMOVUPD Y4, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  adloop8

adloop4:
	CMPQ AX, CX
	JGE  adone2
	VMOVUPD (SI)(AX*8), Y0   // g
	VMOVUPD (R8)(AX*8), Y1   // m
	VMULPD  Y14, Y1, Y1      // b1*m
	VMULPD  Y13, Y0, Y2      // omb1*g
	VADDPD  Y2, Y1, Y1       // m'
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y2   // v
	VMULPD  Y12, Y2, Y2      // b2*v
	VMULPD  Y11, Y0, Y3      // omb2*g
	VMULPD  Y0, Y3, Y3       // (omb2*g)*g
	VADDPD  Y3, Y2, Y2       // v'
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD  Y8, Y1, Y1       // mh = m'/bc1
	VDIVPD  Y7, Y2, Y2       // vh = v'/bc2
	VSQRTPD Y2, Y2           // sqrt(vh)
	VADDPD  Y10, Y2, Y2      // +eps
	VDIVPD  Y2, Y1, Y1       // mh/(sqrt+eps)
	VMOVUPD (DI)(AX*8), Y4   // val
	VMULPD  Y9, Y4, Y5       // wd*val
	VADDPD  Y5, Y1, Y1       // update
	VMULPD  Y15, Y1, Y1      // lr*update
	VSUBPD  Y1, Y4, Y4       // val - lr*update
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  adloop4
adone2:
	VZEROUPPER
	RET
