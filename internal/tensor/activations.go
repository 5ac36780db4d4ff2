package tensor

import "math"

// GELU applies the Gaussian Error Linear Unit (tanh approximation, the form
// used by Transformer implementations) elementwise.
func GELU(m *Matrix) *Matrix {
	return Apply(m, geluScalar)
}

func geluScalar(x float64) float64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}

// GELUGrad returns d GELU(x)/dx evaluated elementwise at m.
func GELUGrad(m *Matrix) *Matrix {
	return Apply(m, geluGradScalar)
}

func geluGradScalar(x float64) float64 {
	const c = 0.7978845608028654
	inner := c * (x + 0.044715*x*x*x)
	t := math.Tanh(inner)
	dinner := c * (1 + 3*0.044715*x*x)
	return 0.5*(1+t) + 0.5*x*(1-t*t)*dinner
}

// ApplyTo computes dst = f(m) elementwise into an existing matrix. dst may
// alias m.
func ApplyTo(dst, m *Matrix, f func(float64) float64) {
	if !dst.SameShape(m) {
		panic("tensor: ApplyTo shape mismatch")
	}
	if phantomAny(dst, m) {
		return
	}
	for i, v := range m.Data {
		dst.Data[i] = f(v)
	}
}

// GELUTo computes dst = GELU(m) elementwise into an existing matrix: geluScalar
// of every element, through the bound kernel (elem.go). dst may alias m.
func GELUTo(dst, m *Matrix) {
	if !dst.SameShape(m) {
		panic("tensor: GELUTo shape mismatch")
	}
	if phantomAny(dst, m) {
		return
	}
	geluTo(dst.Data, m.Data)
}

// GELUGradTo computes dst = GELU'(m) elementwise into an existing matrix. It
// stays on the scalar loop: only tests call it, and as the two-pass reference
// of TestGELUGradHadamardBitwise it makes that test cross the kernel boundary.
func GELUGradTo(dst, m *Matrix) {
	if !dst.SameShape(m) {
		panic("tensor: GELUGradTo shape mismatch")
	}
	if phantomAny(dst, m) {
		return
	}
	for i, v := range m.Data {
		dst.Data[i] = geluGradScalar(v)
	}
}

// GELUGradHadamardTo computes dst = dy ⊙ GELU'(pre) — the fused backward
// epilogue of a GELU linear layer. Per element it performs exactly
// GELUGradTo's geluGradScalar evaluation followed by MulTo's single
// multiply, so it is bitwise identical to the two-pass form while skipping
// one full memory round trip. dst may alias dy or pre.
func GELUGradHadamardTo(dst, pre, dy *Matrix) {
	if !dst.SameShape(pre) || !pre.SameShape(dy) {
		panic("tensor: GELUGradHadamardTo shape mismatch")
	}
	if phantomAny(dst, pre, dy) {
		return
	}
	geluGradMulTo(dst.Data, pre.Data, dy.Data)
}

// SoftmaxRows applies a numerically stable softmax to each row of m.
func SoftmaxRows(m *Matrix) *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Rows, m.Cols)
	}
	out := New(m.Rows, m.Cols)
	SoftmaxRowsTo(out, m)
	return out
}

// SoftmaxRowsTo computes a numerically stable row softmax of m into dst.
// dst may alias m.
func SoftmaxRowsTo(dst, m *Matrix) {
	if !dst.SameShape(m) {
		panic("tensor: SoftmaxRowsTo shape mismatch")
	}
	if phantomAny(dst, m) {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := dst.Data[i*m.Cols : (i+1)*m.Cols]
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			orow[j] = e
			sum += e
		}
		inv := 1 / sum
		if len(orow) > 0 {
			vscale(orow, inv)
		}
	}
}

// SoftmaxRowsBackwardTo computes the input gradient of a row softmax into
// dst given the softmax output s and the output gradient ds. dst may alias
// ds (but not s, whose values feed every element of its row).
func SoftmaxRowsBackwardTo(dst, s, ds *Matrix) {
	if !s.SameShape(ds) || !dst.SameShape(s) {
		panic("tensor: SoftmaxRowsBackwardTo shape mismatch")
	}
	if phantomAny(dst, s, ds) {
		return
	}
	for i := 0; i < s.Rows; i++ {
		srow := s.Data[i*s.Cols : (i+1)*s.Cols]
		drow := ds.Data[i*s.Cols : (i+1)*s.Cols]
		orow := dst.Data[i*s.Cols : (i+1)*s.Cols]
		var dot float64
		for j := range srow {
			dot += srow[j] * drow[j]
		}
		for j := range srow {
			orow[j] = srow[j] * (drow[j] - dot)
		}
	}
}

// SoftmaxRowsBackward returns the input gradient of a row softmax given the
// softmax output s and the output gradient ds:
// dx_j = s_j * (ds_j − Σ_k ds_k s_k).
func SoftmaxRowsBackward(s, ds *Matrix) *Matrix {
	if !s.SameShape(ds) {
		panic("tensor: SoftmaxRowsBackward shape mismatch")
	}
	if phantomAny(s, ds) {
		return NewPhantom(s.Rows, s.Cols)
	}
	out := New(s.Rows, s.Cols)
	SoftmaxRowsBackwardTo(out, s, ds)
	return out
}
