package tensor

import (
	"fmt"
	"math"
)

// phantomAny reports whether any operand is phantom.
func phantomAny(ms ...*Matrix) bool {
	for _, m := range ms {
		if m.Phantom() {
			return true
		}
	}
	return false
}

// MatMul returns C = A·B via the register-tiled kernel in gemm.go and, above
// a size threshold on multi-core hosts, goroutine row-band parallelism.
// Results are bitwise identical to the naive reference kernel in naive.go at
// every size and band count.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(a, b) {
		return NewPhantom(a.Rows, b.Cols)
	}
	c := New(a.Rows, b.Cols)
	gemm(opNN, c, a, b, epilogue{})
	return c
}

// MatMulInto computes C += A·B into an existing matrix (must be A.Rows×B.Cols).
func MatMulInto(c, a, b *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto %dx%d += %dx%d * %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(c, a, b) {
		return
	}
	gemm(opNN, c, a, b, epilogue{})
}

// MatMulBiasInto computes C += A·B and then adds the row vector bias to
// every C row inside the GEMM's write-back, while the rows are cache-hot.
// Bitwise identical to MatMulInto followed by AddRowVectorInPlace — the
// fused epilogue performs the same per-element add in the same order (see
// epilogue.go for the fusion contract).
func MatMulBiasInto(c, a, b, bias *Matrix) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasInto %dx%d += %dx%d * %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows*bias.Cols != c.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasInto bias of %d for %d cols", bias.Rows*bias.Cols, c.Cols))
	}
	if phantomAny(c, a, b, bias) {
		return
	}
	gemm(opNN, c, a, b, epilogue{bias: bias})
}

// MatMulBiasGELUInto computes pre += A·B, adds bias to every row, and writes
// GELU(pre) into act — the whole linear-layer forward in one pass over the
// output, with pre retaining the pre-activation for the backward. bias may
// be nil to fuse only the activation. Bitwise identical to MatMulInto +
// AddRowVectorInPlace + GELUTo run separately.
func MatMulBiasGELUInto(act, pre, a, b, bias *Matrix) {
	if a.Cols != b.Rows || pre.Rows != a.Rows || pre.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasGELUInto %dx%d += %dx%d * %dx%d", pre.Rows, pre.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if !act.SameShape(pre) {
		panic(fmt.Sprintf("tensor: MatMulBiasGELUInto act %dx%d vs pre %dx%d", act.Rows, act.Cols, pre.Rows, pre.Cols))
	}
	if bias != nil && bias.Rows*bias.Cols != pre.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasGELUInto bias of %d for %d cols", bias.Rows*bias.Cols, pre.Cols))
	}
	if phantomAny(act, pre, a, b) || (bias != nil && bias.Phantom()) {
		return
	}
	gemm(opNN, pre, a, b, epilogue{bias: bias, act: act})
}

// MatMulNT returns C = A·Bᵀ.
func MatMulNT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNT %dx%d by %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(a, b) {
		return NewPhantom(a.Rows, b.Rows)
	}
	c := New(a.Rows, b.Rows)
	gemm(opNT, c, a, b, epilogue{})
	return c
}

// MatMulTN returns C = Aᵀ·B.
func MatMulTN(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTN %dx%dᵀ by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(a, b) {
		return NewPhantom(a.Cols, b.Cols)
	}
	c := New(a.Cols, b.Cols)
	gemm(opTN, c, a, b, epilogue{})
	return c
}

// MatMulNTInto computes C = A·Bᵀ into an existing matrix (A.Rows×B.Rows),
// overwriting it — the NT kernel starts its accumulators from zero and never
// reads C.
func MatMulNTInto(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNTInto %dx%d += %dx%d * %dx%dᵀ", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(c, a, b) {
		return
	}
	gemm(opNT, c, a, b, epilogue{})
}

// MatMulTNInto computes C += Aᵀ·B into an existing matrix (A.Cols×B.Cols).
// Zero c first when an overwrite is wanted.
func MatMulTNInto(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTNInto %dx%d += %dx%dᵀ * %dx%d", c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(c, a, b) {
		return
	}
	gemm(opTN, c, a, b, epilogue{})
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Cols, m.Rows)
	}
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Add returns a + b elementwise.
func Add(a, b *Matrix) *Matrix { return zipWith(a, b, func(x, y float64) float64 { return x + y }) }

// Sub returns a − b elementwise.
func Sub(a, b *Matrix) *Matrix { return zipWith(a, b, func(x, y float64) float64 { return x - y }) }

// Mul returns the elementwise (Hadamard) product a ⊙ b.
func Mul(a, b *Matrix) *Matrix { return zipWith(a, b, func(x, y float64) float64 { return x * y }) }

func zipWith(a, b *Matrix, f func(x, y float64) float64) *Matrix {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: elementwise op %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(a, b) {
		return NewPhantom(a.Rows, a.Cols)
	}
	out := New(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	return out
}

// AddTo computes dst = a + b elementwise into an existing matrix. dst may
// alias either operand.
func AddTo(dst, a, b *Matrix) {
	if !a.SameShape(b) || !dst.SameShape(a) {
		panic(fmt.Sprintf("tensor: AddTo %dx%d = %dx%d + %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(dst, a, b) {
		return
	}
	vaddTo(dst.Data, a.Data, b.Data)
}

// AddSlices computes dst[i] = a[i] + b[i] for every i < len(dst) with the
// same vector kernel as AddTo — for callers that sum windows of matrices
// rather than whole ones (dist's tree reduction). dst may alias either
// operand; a and b must be at least as long as dst.
func AddSlices(dst, a, b []float64) { vaddTo(dst, a, b) }

// MulTo computes dst = a ⊙ b elementwise into an existing matrix. dst may
// alias either operand.
func MulTo(dst, a, b *Matrix) {
	if !a.SameShape(b) || !dst.SameShape(a) {
		panic(fmt.Sprintf("tensor: MulTo %dx%d = %dx%d * %dx%d", dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(dst, a, b) {
		return
	}
	vmulTo(dst.Data, a.Data, b.Data)
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Matrix) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: AddInPlace %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if phantomAny(a, b) {
		return
	}
	vaddIn(a.Data, b.Data)
}

// Scale returns alpha*m as a new matrix.
func Scale(alpha float64, m *Matrix) *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Rows, m.Cols)
	}
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = alpha * v
	}
	return out
}

// ScaleInPlace computes m *= alpha.
func ScaleInPlace(m *Matrix, alpha float64) {
	if len(m.Data) == 0 {
		return
	}
	vscale(m.Data, alpha)
}

// Apply returns f applied elementwise.
func Apply(m *Matrix, f func(float64) float64) *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Rows, m.Cols)
	}
	out := New(m.Rows, m.Cols)
	ApplyTo(out, m, f)
	return out
}

// AddRowVector returns m with the row vector v (1×Cols or length-Cols matrix)
// added to every row — the bias-add used by linear layers.
func AddRowVector(m, v *Matrix) *Matrix {
	if v.Rows*v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector %dx%d with vector of %d", m.Rows, m.Cols, v.Rows*v.Cols))
	}
	if phantomAny(m, v) {
		return NewPhantom(m.Rows, m.Cols)
	}
	out := m.Clone()
	AddRowVectorInPlace(out, v)
	return out
}

// AddRowVectorInPlace adds the row vector v to every row of m.
func AddRowVectorInPlace(m, v *Matrix) {
	if v.Rows*v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVectorInPlace %dx%d with vector of %d", m.Rows, m.Cols, v.Rows*v.Cols))
	}
	if phantomAny(m, v) {
		return
	}
	if m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		vaddIn(m.Data[i*m.Cols:(i+1)*m.Cols], v.Data)
	}
}

// ColSums returns the 1×Cols vector of column sums — the bias gradient.
func ColSums(m *Matrix) *Matrix {
	if m.Phantom() {
		return NewPhantom(1, m.Cols)
	}
	out := New(1, m.Cols)
	ColSumsInto(out, m)
	return out
}

// ColSumsInto writes the column sums of m into the 1×Cols vector dst,
// overwriting it.
func ColSumsInto(dst, m *Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto %dx%d from %dx%d", dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	if phantomAny(dst, m) {
		return
	}
	for j := range dst.Data {
		dst.Data[j] = 0
	}
	if m.Cols == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		vaddIn(dst.Data, m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// RowSumsIntoCol writes the row sums of m into column col of dst (a matrix
// with m.Rows rows), overwriting that column. It is the packing primitive
// behind the fused layer-norm statistics message.
func RowSumsIntoCol(dst *Matrix, col int, m *Matrix) {
	if dst.Rows != m.Rows || col < 0 || col >= dst.Cols {
		panic(fmt.Sprintf("tensor: RowSumsIntoCol col %d of %dx%d from %dx%d", col, dst.Rows, dst.Cols, m.Rows, m.Cols))
	}
	if phantomAny(dst, m) {
		return
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for _, v := range row {
			s += v
		}
		dst.Data[i*dst.Cols+col] = s
	}
}

// RowSums returns the Rows×1 vector of row sums.
func RowSums(m *Matrix) *Matrix {
	if m.Phantom() {
		return NewPhantom(m.Rows, 1)
	}
	out := New(m.Rows, 1)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for _, v := range row {
			s += v
		}
		out.Data[i] = s
	}
	return out
}

// Sum returns the sum of all elements (0 for phantoms).
func Sum(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Frobenius returns the Frobenius norm of m (0 for phantoms).
func Frobenius(m *Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ArgmaxRows returns, for each row, the column index of the maximum element.
func ArgmaxRows(m *Matrix) []int {
	if m.Phantom() {
		return make([]int, m.Rows)
	}
	out := make([]int, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		best, arg := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, arg = v, j
			}
		}
		out[i] = arg
	}
	return out
}

// GEMMFlops returns the floating-point operation count of an m×k by k×n
// multiply-accumulate (2·m·n·k). Float dimensions are accepted so that
// phantom attention can charge fractional sequences per processor.
func GEMMFlops(m, n, k float64) float64 { return 2 * m * n * k }
