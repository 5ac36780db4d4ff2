//go:build amd64

#include "textflag.h"

// AVX2 GELU and GELU′ kernels: each lane performs the operation sequence of
// geluScalar / geluGradScalar (activations.go) with math.Tanh and math.Exp
// expanded in place, so its result is theirs bit for bit — see "The GELU
// kernel" in docs/architecture.md §3.
//
//   - GELU's own arithmetic and math.Tanh's rational branch are separate
//     VMULPD / VADDPD / VDIVPD, as the compiler emits them at GOAMD64=v1.
//   - math.Exp on amd64 is archExp ($GOROOT/src/math/exp_amd64.s), whose FMA
//     path (taken when the CPU has AVX and FMA — the condition this kernel is
//     bound under) is replicated mnemonic for mnemonic in its packed form.
//     It is the only fused multiply-add in the package, and it is here only
//     because the definition it replicates uses it.
//
// Both tanh branches are computed for every lane and blended by |u|, so the
// loop has no data-dependent jump. Inside tanh, exp's argument 2|u| lies in
// [1.25, 88.03] on every lane that keeps the exp branch: archExp's overflow,
// denormal and non-finite exits are unreachable there. A lane that discards
// the branch feeds it [0, 1.25) or a NaN, which the integer convert turns
// into the indefinite integer without trapping.

// Every constant replicated to four lanes, so each is a 32-byte memory
// operand rather than a broadcast. The literals are the definitions' own:
// activations.go, math/tanh.go, math/exp_amd64.s.
#define K4(i, v) \
	DATA geluk<>+(i*32+0)(SB)/8, v; \
	DATA geluk<>+(i*32+8)(SB)/8, v; \
	DATA geluk<>+(i*32+16)(SB)/8, v; \
	DATA geluk<>+(i*32+24)(SB)/8, v

K4(0, $0.044715)
K4(1, $0.7978845608028654)                 // c = sqrt(2/pi)
K4(2, $0.134145)                           // 3·0.044715, folded exactly by the compiler
K4(3, $0.5)
K4(4, $1.0)
K4(5, $2.0)
K4(6, $0x7FFFFFFFFFFFFFFF)                 // |·|
K4(7, $-9.64399179425052238628e-1)         // tanhP
K4(8, $-9.92877231001918586564e1)
K4(9, $-1.61468768441708447952e3)
K4(10, $1.12811678491632931402e2)          // tanhQ
K4(11, $2.23548839060100448583e3)
K4(12, $4.84406305325125486048e3)
K4(13, $0.625)
K4(14, $4.4014845965556527147994e+01)      // 0.5·MAXLOG
K4(15, $1.4426950408889634073599246810018920) // LOG2E
K4(16, $0.69314718055966295651160180568695068359375) // LN2U
K4(17, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
K4(18, $0.0625)
K4(19, $2.4801587301587301587e-5)          // exp's Taylor coefficients, high to low
K4(20, $1.9841269841269841270e-4)
K4(21, $1.3888888888888888889e-3)
K4(22, $8.3333333333333333333e-3)
K4(23, $4.1666666666666666667e-2)
K4(24, $1.6666666666666666667e-1)
K4(25, $1023)                              // exponent bias, as int64 lanes
GLOBL geluk<>(SB), RODATA|NOPTR, $832

// The operands by name, indexed as the table above.
#define K(i) geluk<>+(i*32)(SB)
#define K0     K(0)
#define KC     K(1)
#define K3     K(2)
#define HALF   K(3)
#define ONE    K(4)
#define TWO    K(5)
#define ABS    K(6)
#define TP0    K(7)
#define TP1    K(8)
#define TP2    K(9)
#define TQ0    K(10)
#define TQ1    K(11)
#define TQ2    K(12)
#define SMALL  K(13)
#define BIG    K(14)
#define LOG2E  K(15)
#define LN2U   K(16)
#define LN2L   K(17)
#define R16    K(18)
#define E8     K(19)
#define E7     K(20)
#define E6     K(21)
#define E5     K(22)
#define E4     K(23)
#define E3     K(24)
#define BIAS   K(25)

// INNER: u = c·(x + ((0.044715·x)·x)·x).
#define INNER(x, u) \
	VMULPD K0, x, u; \
	VMULPD x, u, u; \
	VMULPD x, u, u; \
	VADDPD u, x, u; \
	VMULPD KC, u, u

// TANH is math.Tanh per lane, t = tanh(u), in three steps so that a loop can
// interleave two independent four-lane chains (the chain is some sixty
// dependent operations long; one alone leaves the ports idle):
//
//	z = |u|, sg = u's sign bit
//	T_RAT  r = u + ((u·s)·P(s))/Q(s), s = u·u     math.Tanh's z < 0.625
//	T_EXP  e = 1 − 2/(exp(2z) + 1)                 math.Tanh's z ≥ 0.625
//	T_SEL  t = (z ≥ 0.625 ? e : r) | sg
//
// The compare is ordered (GE_OQ), so a NaN lane keeps the rational branch, as
// in the scalar switch. Two of the switch's cases need no blend of their own:
//
//   - z > 0.5·MAXLOG → ±1. T_EXP clamps z to 0.5·MAXLOG, where the exp branch
//     is exactly 1 (2/(exp(88.03)+1) is far below half an ulp of 1).
//   - u == 0 → u. The rational branch gives +0 for either zero; or-ing u's
//     sign back makes −0 of it and changes no other lane, since r has u's
//     sign whenever u ≠ 0 (the correction term is under 0.14·|u|) and a NaN
//     keeps its sign through every operation. The same OR is the exp
//     branch's "if x < 0 { z = −z }", e being positive.
//
// T_RAT leaves u free; T_EXP takes it and two more scratch registers (k with
// its X-register name kx).
#define T_RAT(u, z, sg, r, a, b) \
	VANDPD  ABS, u, z; \
	VXORPD  z, u, sg; \
	VMULPD  u, u, r;               /* s */ \
	VMULPD  TP0, r, a; \
	VADDPD  TP1, a, a; \
	VMULPD  r, a, a; \
	VADDPD  TP2, a, a;             /* P(s) */ \
	VADDPD  TQ0, r, b; \
	VMULPD  r, b, b; \
	VADDPD  TQ1, b, b; \
	VMULPD  r, b, b; \
	VADDPD  TQ2, b, b;             /* Q(s) */ \
	VMULPD  r, u, r;               /* u·s */ \
	VMULPD  a, r, r; \
	VDIVPD  b, r, r; \
	VADDPD  r, u, r

// From the second line on this is archExp's FMA path on x = 2z, packed.
#define T_EXP(z, e, k, kx, w) \
	VMINPD  BIG, z, e; \
	VMULPD  TWO, e, e; \
	VMULPD  LOG2E, e, k; \
	VCVTPD2DQY k, kx;              /* k, round to nearest even */ \
	VCVTDQ2PD kx, w; \
	VFNMADD231PD LN2U, w, e;       /* x −= k·LN2U */ \
	VFNMADD231PD LN2L, w, e;       /* x −= k·LN2L */ \
	VMULPD  R16, e, e; \
	VMOVUPD E8, w; \
	VFMADD213PD E7, e, w; \
	VFMADD213PD E6, e, w; \
	VFMADD213PD E5, e, w; \
	VFMADD213PD E4, e, w; \
	VFMADD213PD E3, e, w; \
	VFMADD213PD HALF, e, w; \
	VFMADD213PD ONE, e, w; \
	VMULPD  w, e, e; \
	VADDPD  TWO, e, w; \
	VMULPD  w, e, e; \
	VADDPD  TWO, e, w; \
	VMULPD  w, e, e; \
	VADDPD  TWO, e, w; \
	VMULPD  w, e, e; \
	VADDPD  TWO, e, w; \
	VFMADD213PD ONE, w, e; \
	VPMOVSXDQ kx, k; \
	VPADDQ  BIAS, k, k; \
	VPSLLQ  $52, k, k;             /* 2^k through the exponent field */ \
	VMULPD  k, e, e;               /* exp(2z) */ \
	VADDPD  ONE, e, e; \
	VMOVUPD TWO, w; \
	VDIVPD  e, w, e; \
	VMOVUPD ONE, w; \
	VSUBPD  e, w, e

#define T_SEL(z, sg, r, e, m, t) \
	VCMPPD  $0x1D, SMALL, z, m; \
	VBLENDVPD m, e, r, t; \
	VORPD   sg, t, t

// Chain A lives in Y0–Y6, chain B in Y8–Y14: x, u/e/t, z, sg, r, a/k, b/w.
#define INNER_A INNER(Y0, Y1)
#define INNER_B INNER(Y8, Y9)
#define RAT_A   T_RAT(Y1, Y2, Y3, Y4, Y5, Y6)
#define RAT_B   T_RAT(Y9, Y10, Y11, Y12, Y13, Y14)
#define EXP_A   T_EXP(Y2, Y1, Y5, X5, Y6)
#define EXP_B   T_EXP(Y10, Y9, Y13, X13, Y14)
#define SEL_A   T_SEL(Y2, Y3, Y4, Y1, Y5, Y1)
#define SEL_B   T_SEL(Y10, Y11, Y12, Y9, Y13, Y9)

// GELU: t = (0.5·x)·(1 + t).
#define GELU_OUT(x, t, a) \
	VADDPD ONE, t, t; \
	VMULPD HALF, x, a; \
	VMULPD t, a, t

// GRAD: t = 0.5·(1+t) + ((0.5·x)·(1 − t·t))·dinner, dinner = c·(1 + (k₃·x)·x).
#define GRAD_OUT(x, t, d, l, h) \
	VMULPD K3, x, d; \
	VMULPD x, d, d; \
	VADDPD ONE, d, d; \
	VMULPD KC, d, d;               /* dinner */ \
	VADDPD ONE, t, l; \
	VMULPD HALF, l, l;             /* 0.5·(1+t) */ \
	VMULPD t, t, t; \
	VMOVUPD ONE, h; \
	VSUBPD t, h, t;                /* 1 − t·t */ \
	VMULPD HALF, x, h; \
	VMULPD t, h, h; \
	VMULPD d, h, h; \
	VADDPD h, l, t

// func tanhPtr(dst, src *float64, n int)
// dst[i] = math.Tanh(src[i]): the core alone, so that a test can hold it to
// math.Tanh itself. n must be a multiple of 4.
TEXT ·tanhPtr(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
thloop:
	CMPQ AX, CX
	JGE  thdone
	VMOVUPD (SI)(AX*8), Y1
	RAT_A
	EXP_A
	SEL_A
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  thloop
thdone:
	VZEROUPPER
	RET

// func geluPtr(dst, src *float64, n int)
// dst[i] = (0.5·x)·(1 + tanh(u)), x = src[i]. n must be a multiple of 4.
TEXT ·geluPtr(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $4, DX
geloop8:
	CMPQ AX, DX
	JGE  getail
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y8
	INNER_A
	INNER_B
	RAT_A
	RAT_B
	EXP_A
	EXP_B
	SEL_A
	SEL_B
	GELU_OUT(Y0, Y1, Y2)
	GELU_OUT(Y8, Y9, Y10)
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  geloop8
getail:
	CMPQ AX, CX
	JGE  gedone
	VMOVUPD (SI)(AX*8), Y0
	INNER_A
	RAT_A
	EXP_A
	SEL_A
	GELU_OUT(Y0, Y1, Y2)
	VMOVUPD Y1, (DI)(AX*8)
gedone:
	VZEROUPPER
	RET

// func geluGradMulPtr(dst, pre, dy *float64, n int)
// dst[i] = dy[i]·GELU′(pre[i]). n must be a multiple of 4.
TEXT ·geluGradMulPtr(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ pre+8(FP), SI
	MOVQ dy+16(FP), R8
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SUBQ $4, DX
ggloop8:
	CMPQ AX, DX
	JGE  ggtail
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y8
	INNER_A
	INNER_B
	RAT_A
	RAT_B
	EXP_A
	EXP_B
	SEL_A
	SEL_B
	GRAD_OUT(Y0, Y1, Y2, Y3, Y4)
	GRAD_OUT(Y8, Y9, Y10, Y11, Y12)
	VMULPD (R8)(AX*8), Y1, Y1
	VMULPD 32(R8)(AX*8), Y9, Y9
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y9, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  ggloop8
ggtail:
	CMPQ AX, CX
	JGE  ggdone
	VMOVUPD (SI)(AX*8), Y0
	INNER_A
	RAT_A
	EXP_A
	SEL_A
	GRAD_OUT(Y0, Y1, Y2, Y3, Y4)
	VMULPD (R8)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
ggdone:
	VZEROUPPER
	RET
