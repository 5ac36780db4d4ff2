package tensor

import "math"

// Vectorised elementwise kernels. Unlike the GEMM reductions, these ops
// are embarrassingly per-element: every output element is produced by its
// own short chain of individually rounded IEEE operations on the matching
// input elements, with no cross-element accumulation. Reordering lanes into
// SIMD registers therefore cannot change a single bit — VADDPD on four
// lanes performs the same four independent roundings the scalar loop does —
// so the AVX2 bindings in elem_amd64.s are bitwise identical to the
// portable loops below, which remain the reference (and the non-amd64
// implementation). Division and square root are included: VDIVPD and
// VSQRTPD are correctly rounded per lane, exactly like their scalar forms.
//
// The two GELU kernels are the same kind of thing one level up. Their
// definition is geluScalar / geluGradScalar, which call math.Tanh and through
// it math.Exp; the amd64 kernels (gelu_amd64.s) expand both in place and
// perform, per lane, the operations those functions perform on this
// toolchain — including the fused multiply-adds of math.Exp's own amd64
// assembly, the one place the package fuses, and only because its definition
// does. A replica, not a redefinition: no loss or weight moves by a bit, and
// TestGELUKernelsMatchScalarBitwise / TestTanhCoreMatchesMath are what hold
// it there. They are bound only where math.Exp takes that path (AVX2 ∧ FMA).
//
// The package-level function variables are declared here with the portable
// implementation and rebound to the AVX2 versions by the amd64 init when the
// CPU qualifies.
var (
	vaddTo = vaddToGeneric // dst[i] = a[i] + b[i]
	vaddIn = vaddInGeneric // dst[i] += src[i]
	vmulTo = vmulToGeneric // dst[i] = a[i] * b[i]
	vscale = vscaleGeneric // dst[i] *= alpha

	adamKernel = adamUpdateGeneric

	geluTo        = geluToGeneric        // dst[i] = GELU(src[i])
	geluGradMulTo = geluGradMulToGeneric // dst[i] = dy[i] * GELU'(pre[i])
)

func vaddToGeneric(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	_ = a[len(dst)-1]
	_ = b[len(dst)-1]
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

func vaddInGeneric(dst, src []float64) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)-1]
	for i := range dst {
		dst[i] += src[i]
	}
}

func vmulToGeneric(dst, a, b []float64) {
	if len(dst) == 0 {
		return
	}
	_ = a[len(dst)-1]
	_ = b[len(dst)-1]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

func vscaleGeneric(dst []float64, alpha float64) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// PortableGELU rebinds the GELU kernels to the portable loops and returns the
// function that restores the binding it found. It is for tests and benchmarks
// that want both bindings on one host; nothing may be computing meanwhile.
func PortableGELU() (restore func()) {
	to, grad := geluTo, geluGradMulTo
	geluTo, geluGradMulTo = geluToGeneric, geluGradMulToGeneric
	return func() { geluTo, geluGradMulTo = to, grad }
}

// geluToGeneric is GELUTo's and the fused epilogue's loop: geluScalar per
// element.
func geluToGeneric(dst, src []float64) {
	if len(src) == 0 {
		return
	}
	_ = dst[len(src)-1]
	for i, v := range src {
		dst[i] = geluScalar(v)
	}
}

// geluGradMulToGeneric is GELUGradHadamardTo's loop: geluGradScalar per
// element, then the one multiply by dy.
func geluGradMulToGeneric(dst, pre, dy []float64) {
	if len(pre) == 0 {
		return
	}
	_ = dst[len(pre)-1]
	_ = dy[len(pre)-1]
	for i, v := range pre {
		dst[i] = dy[i] * geluGradScalar(v)
	}
}

// adamUpdateGeneric is the reference AdamW update, one parameter element at
// a time. The expression shapes (and so the rounding sequence) are pinned:
// the AVX2 kernel and nn.Adam must perform exactly these operations in
// exactly this order per element.
func adamUpdateGeneric(val, grad, m, v []float64, lr, b1, b2, eps, wd, bc1, bc2 float64) {
	if len(val) == 0 {
		return
	}
	_ = grad[len(val)-1]
	_ = m[len(val)-1]
	_ = v[len(val)-1]
	for i := range val {
		g := grad[i]
		m[i] = b1*m[i] + (1-b1)*g
		v[i] = b2*v[i] + (1-b2)*g*g
		mh := m[i] / bc1
		vh := v[i] / bc2
		val[i] -= lr * (mh/(math.Sqrt(vh)+eps) + wd*val[i])
	}
}

// AdamUpdate applies one AdamW step over the flat parameter data: the
// first- and second-moment updates, bias correction by the precomputed
// 1−βᵗ factors, and the decoupled weight-decay update, elementwise. It is
// the hot loop of nn.Adam, hoisted here so the amd64 build can vectorise
// it (bitwise identically — see the package comment) with the rest of the
// elementwise kernels.
func AdamUpdate(value, grad, m, v *Matrix, lr, beta1, beta2, eps, weightDecay, bc1, bc2 float64) {
	if phantomAny(value, grad, m, v) {
		return
	}
	adamKernel(value.Data, grad.Data, m.Data, v.Data, lr, beta1, beta2, eps, weightDecay, bc1, bc2)
}
