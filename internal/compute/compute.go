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

// MatMul returns a·b and charges 2mnk flops.
func MatMul(w *dist.Worker, a, b *tensor.Matrix) *tensor.Matrix {
	w.ChargeGEMM(float64(a.Rows), float64(b.Cols), float64(a.Cols))
	return tensor.MatMul(a, b)
}

// MatMulInto computes c += a·b and charges 2mnk flops.
func MatMulInto(w *dist.Worker, c, a, b *tensor.Matrix) {
	w.ChargeGEMM(float64(a.Rows), float64(b.Cols), float64(a.Cols))
	tensor.MatMulInto(c, a, b)
}

// MatMulNT returns a·bᵀ and charges 2mnk flops.
func MatMulNT(w *dist.Worker, a, b *tensor.Matrix) *tensor.Matrix {
	w.ChargeGEMM(float64(a.Rows), float64(b.Rows), float64(a.Cols))
	return tensor.MatMulNT(a, b)
}

// MatMulTN returns aᵀ·b and charges 2mnk flops.
func MatMulTN(w *dist.Worker, a, b *tensor.Matrix) *tensor.Matrix {
	w.ChargeGEMM(float64(a.Cols), float64(b.Cols), float64(a.Rows))
	return tensor.MatMulTN(a, b)
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

// Add returns a+b, charging one flop per element.
func Add(w *dist.Worker, a, b *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	return tensor.Add(a, b)
}

// AddInPlace computes a += b, charging one flop per element.
func AddInPlace(w *dist.Worker, a, b *tensor.Matrix) {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	tensor.AddInPlace(a, b)
}

// Sub returns a−b, charging one flop per element.
func Sub(w *dist.Worker, a, b *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	return tensor.Sub(a, b)
}

// Mul returns the Hadamard product, charging one flop per element.
func Mul(w *dist.Worker, a, b *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	return tensor.Mul(a, b)
}

// AddTo computes dst = a+b (dst may alias either operand), one flop per
// element.
func AddTo(w *dist.Worker, dst, a, b *tensor.Matrix) {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	tensor.AddTo(dst, a, b)
}

// MulTo computes the Hadamard product into dst (dst may alias either
// operand), one flop per element.
func MulTo(w *dist.Worker, dst, a, b *tensor.Matrix) {
	w.Compute(float64(a.Size()) * FlopsPerAdd)
	tensor.MulTo(dst, a, b)
}

// Scale returns alpha·m, charging one flop per element.
func Scale(w *dist.Worker, alpha float64, m *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	return tensor.Scale(alpha, m)
}

// AddRowVector returns m + 1·vᵀ (bias add), charging one flop per element.
func AddRowVector(w *dist.Worker, m, v *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	return tensor.AddRowVector(m, v)
}

// AddRowVectorInPlace computes m += 1·vᵀ (bias add) in place, one flop per
// element.
func AddRowVectorInPlace(w *dist.Worker, m, v *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	tensor.AddRowVectorInPlace(m, v)
}

// ColSums returns the column sums (bias gradient), one flop per element.
func ColSums(w *dist.Worker, m *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	return tensor.ColSums(m)
}

// ColSumsInto computes the column sums into dst (overwriting it), one flop
// per element.
func ColSumsInto(w *dist.Worker, dst, m *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerAdd)
	tensor.ColSumsInto(dst, m)
}

// GELU applies the activation, charging FlopsPerGELU per element.
func GELU(w *dist.Worker, m *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(m.Size()) * FlopsPerGELU)
	return tensor.GELU(m)
}

// GELUGrad evaluates the activation derivative, same charge as GELU.
func GELUGrad(w *dist.Worker, m *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(m.Size()) * FlopsPerGELU)
	return tensor.GELUGrad(m)
}

// SoftmaxRows applies a row softmax, charging FlopsPerSoftmax per element.
func SoftmaxRows(w *dist.Worker, m *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(m.Size()) * FlopsPerSoftmax)
	return tensor.SoftmaxRows(m)
}

// SoftmaxRowsBackward charges FlopsPerSoftmax per element.
func SoftmaxRowsBackward(w *dist.Worker, s, ds *tensor.Matrix) *tensor.Matrix {
	w.Compute(float64(s.Size()) * FlopsPerSoftmax)
	return tensor.SoftmaxRowsBackward(s, ds)
}

// GELUTo computes dst = GELU(m), charging FlopsPerGELU per element.
func GELUTo(w *dist.Worker, dst, m *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerGELU)
	tensor.GELUTo(dst, m)
}

// GELUGradTo computes dst = GELU'(m), same charge as GELU.
func GELUGradTo(w *dist.Worker, dst, m *tensor.Matrix) {
	w.Compute(float64(m.Size()) * FlopsPerGELU)
	tensor.GELUGradTo(dst, m)
}

// GELUGradHadamardTo computes dst = dy ⊙ GELU'(pre) in one pass — the fused
// backward of a GELU linear layer. Charges FlopsPerGELU plus one multiply
// per element, exactly what GELUGradTo + MulTo charge separately.
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
