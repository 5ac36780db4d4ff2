// Package compute bridges tensor arithmetic and the simulated cluster: every
// operation both performs the computation (when operands are real) and
// charges its flop count to the calling worker's simulated clock (always,
// including in phantom mode). Distributed algorithms use these wrappers
// instead of calling the tensor package directly so that timing and
// arithmetic can never drift apart.
package compute

import (
	"repro/internal/dist"
	"repro/internal/tensor"
)

// Per-element flop estimates for non-GEMM kernels. They are small next to
// the matrix multiplies but keep the simulated clock honest.
const (
	FlopsPerAdd     = 1
	FlopsPerGELU    = 12 // tanh-approximation polynomial
	FlopsPerSoftmax = 6  // exp + max + normalise, amortised per element
	FlopsPerNorm    = 8  // layer-norm normalise step per element
)

// MatMulInto computes c += a·b and charges 2mnk flops.
func MatMulInto(w *dist.Worker, c, a, b *tensor.Matrix) {
	w.ChargeGEMM(float64(a.Rows), float64(b.Cols), float64(a.Cols))
	tensor.MatMulInto(c, a, b)
}

// MatMulNTInto computes c = a·bᵀ (overwriting c) and charges 2mnk flops.
func MatMulNTInto(w *dist.Worker, c, a, b *tensor.Matrix) {
	w.ChargeGEMM(float64(a.Rows), float64(b.Rows), float64(a.Cols))
	tensor.MatMulNTInto(c, a, b)
}

// MatMulTNInto computes c += aᵀ·b and charges 2mnk flops.
func MatMulTNInto(w *dist.Worker, c, a, b *tensor.Matrix) {
	w.ChargeGEMM(float64(a.Cols), float64(b.Cols), float64(a.Rows))
	tensor.MatMulTNInto(c, a, b)
}

// MatMulBiasInto computes c += a·b with the bias row-add fused into the
// GEMM write-back. Charges 2mnk for the GEMM plus one flop per output
// element for the add — identical to MatMulInto + AddRowVectorInPlace, in
// clock and in bits.
func MatMulBiasInto(w *dist.Worker, c, a, b, bias *tensor.Matrix) {
	w.ChargeGEMM(float64(a.Rows), float64(b.Cols), float64(a.Cols))
	w.Compute(float64(c.Size()) * FlopsPerAdd)
	tensor.MatMulBiasInto(c, a, b, bias)
}

// MatMulBiasGELUInto computes pre += a·b with bias fused, writing GELU(pre)
// into act — the whole linear forward in one output pass. bias may be nil.
// Charges the GEMM plus the bias add (when present) plus FlopsPerGELU per
// element, exactly what the separate passes charge.
func MatMulBiasGELUInto(w *dist.Worker, act, pre, a, b, bias *tensor.Matrix) {
	w.ChargeGEMM(float64(a.Rows), float64(b.Cols), float64(a.Cols))
	if bias != nil {
		w.Compute(float64(pre.Size()) * FlopsPerAdd)
	}
	w.Compute(float64(pre.Size()) * FlopsPerGELU)
	tensor.MatMulBiasGELUInto(act, pre, a, b, bias)
}

// AddTo computes dst = a+b (dst may alias either operand), one flop per
// element.
func AddTo(w *dist.Worker, dst, a, b *tensor.Matrix) {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	tensor.AddTo(dst, a, b)
}

// AddRowVectorInPlace computes m += 1·vᵀ (bias add) in place, one flop per
// element.
func AddRowVectorInPlace(w *dist.Worker, m, v *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	tensor.AddRowVectorInPlace(m, v)
}

// ColSumsInto computes the column sums into dst (overwriting it), one flop
// per element.
func ColSumsInto(w *dist.Worker, dst, m *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	tensor.ColSumsInto(dst, m)
}

// GELUTo computes dst = GELU(m), charging FlopsPerGELU per element.
func GELUTo(w *dist.Worker, dst, m *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerGELU)
	tensor.GELUTo(dst, m)
}

// GELUGradHadamardTo computes dst = dy ⊙ GELU'(pre) in one pass — the fused
// backward of a GELU linear layer. Charges FlopsPerGELU plus one multiply
// per element, exactly what a GELU-gradient pass and a Hadamard pass would
// charge separately.
func GELUGradHadamardTo(w *dist.Worker, dst, pre, dy *tensor.Matrix) {
	w.Compute(float64(pre.Size()) * (FlopsPerGELU + FlopsPerAdd))
	tensor.GELUGradHadamardTo(dst, pre, dy)
}

// SoftmaxRowsTo computes a row softmax into dst, FlopsPerSoftmax per
// element.
func SoftmaxRowsTo(w *dist.Worker, dst, m *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerSoftmax)
	tensor.SoftmaxRowsTo(dst, m)
}

// SoftmaxRowsBackwardTo computes the softmax input gradient into dst (which
// may alias ds), FlopsPerSoftmax per element.
func SoftmaxRowsBackwardTo(w *dist.Worker, dst, s, ds *tensor.Matrix) {
	w.Compute(float64(s.Size()) * FlopsPerSoftmax)
	tensor.SoftmaxRowsBackwardTo(dst, s, ds)
}
