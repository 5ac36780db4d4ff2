package tensor

import (
	"math"
	"testing"
)

// The GELU kernel contract is stronger than the other elementwise kernels':
// the bound kernels (AVX2 + FMA on qualifying amd64 hosts) expand math.Tanh
// and math.Exp in place, and must still produce geluScalar's and
// geluGradScalar's values bit for bit — on both sides of every branch of
// math.Tanh, at every length (vector body and scalar tail), and when dst
// aliases an operand.

// geluInner is geluScalar's argument to math.Tanh.
func geluInner(x float64) float64 {
	const c = 0.7978845608028654
	return c * (x + 0.044715*x*x*x)
}

// crossing returns the smallest x > 0 with geluInner(x) ≥ u, by bisection on
// the bit pattern (geluInner is monotone and positive floats order as their
// bits do).
func crossing(u float64) float64 {
	lo, hi := uint64(0), math.Float64bits(1e3)
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if geluInner(math.Float64frombits(mid)) >= u {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// geluEdges lists the inputs at which the definition changes behaviour: both
// sides, in both signs, of math.Tanh's rational/exp switch (|u| = 0.625) and
// of its saturation (|u| = 0.5·MAXLOG), signed zeros, denormals, the
// non-finite values, magnitudes whose cube overflows, and NaNs of both signs
// with a payload.
func geluEdges() []float64 {
	edges := []float64{
		0, math.Copysign(0, -1),
		5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
		1e-200, -1e-200, 1e-9, -1e-9,
		0.625, -0.625, 44.1, -44.1, 100, -100, 1e10, -1e10, 1e103, -1e103, 1e200, -1e200,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000123), math.Float64frombits(0x7FF0000000000001),
	}
	for _, u := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		bits := math.Float64bits(crossing(u))
		for d := -4; d <= 4; d++ {
			x := math.Float64frombits(uint64(int64(bits) + int64(d)))
			edges = append(edges, x, -x)
		}
	}
	return edges
}

// geluInputs returns n inputs: the edges in rotation (shifted by n, so across
// the lengths every edge visits every lane) among random values at four
// scales.
func geluInputs(n int, rng *RNG) []float64 {
	edges := geluEdges()
	x := make([]float64, n)
	for i := range x {
		if i%3 == 0 {
			x[i] = edges[(i/3+n)%len(edges)]
			continue
		}
		x[i] = (rng.Float64()*2 - 1) * []float64{0.3, 1, 4, 20}[i%4]
	}
	return x
}

// checkGELU holds the bound kernels to the scalar loops on (pre, dy), out of
// place and with dst aliasing each operand. Forward lanes must agree in every
// bit: the only NaN a lane can meet is its own input's (or the one −Inf·0
// makes). A backward lane may differ in NaN payload only where dy and
// GELU′(pre) are both NaN — x86 then returns whichever operand the compiler
// put first.
func checkGELU(t *testing.T, pre, dy []float64) {
	t.Helper()
	n := len(pre)
	want, wantGrad := make([]float64, n), make([]float64, n)
	geluToGeneric(want, pre)
	geluGradMulToGeneric(wantGrad, pre, dy)

	same := func(name string, got, want []float64, twoNaNs func(i int) bool) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) == math.Float64bits(want[i]) {
				continue
			}
			if twoNaNs != nil && twoNaNs(i) && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
				continue
			}
			t.Fatalf("%s n=%d lane %d: x=%v (%#x) dy=%v: kernel %v (%#x) vs scalar %v (%#x)", name, n, i,
				pre[i], math.Float64bits(pre[i]), dy[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	twoNaNs := func(i int) bool { return math.IsNaN(dy[i]) && math.IsNaN(geluGradScalar(pre[i])) }
	clone := func(s []float64) []float64 { return append([]float64(nil), s...) }

	got := make([]float64, n)
	geluTo(got, pre)
	same("geluTo", got, want, nil)
	got = clone(pre)
	geluTo(got, got)
	same("geluTo dst=src", got, want, nil)

	got = make([]float64, n)
	geluGradMulTo(got, pre, dy)
	same("geluGradMulTo", got, wantGrad, twoNaNs)
	got = clone(pre)
	geluGradMulTo(got, got, dy)
	same("geluGradMulTo dst=pre", got, wantGrad, twoNaNs)
	got = clone(dy)
	geluGradMulTo(got, pre, got)
	same("geluGradMulTo dst=dy", got, wantGrad, twoNaNs)
}

func TestGELUKernelsMatchScalarBitwise(t *testing.T) {
	rng := NewRNG(29)
	// Every vector/tail split, then the workloads' row widths, then a length
	// long enough for every edge to appear several times.
	for _, n := range append(elemLens(), 32, 128, 512, 1031) {
		pre := geluInputs(n, rng)
		dy := make([]float64, n)
		specialSeed(dy, rng)
		checkGELU(t, pre, dy)

		// specialSeed puts NaN, ±Inf, ±0 and a denormal in the first lanes.
		specialSeed(pre, rng)
		for i := range dy {
			dy[i] = rng.Float64()*2 - 1
		}
		checkGELU(t, pre, dy)
	}
}

// TestGELUKernelsAcrossTanhBranches sweeps x densely enough that every region
// of math.Tanh — rational, exp (all 126 values of its exponent k), saturated —
// is hit thousands of times, in both signs.
func TestGELUKernelsAcrossTanhBranches(t *testing.T) {
	rng := NewRNG(37)
	const n = 1 << 16
	pre, dy := make([]float64, n), make([]float64, n)
	for _, scale := range []float64{0.3, 1, 4, 20} {
		for i := range pre {
			pre[i] = (rng.Float64()*2 - 1) * scale
			dy[i] = rng.Float64()*2 - 1
		}
		checkGELU(t, pre, dy)
	}
}

// TestGELUEntryPointsPortable runs the entry points' own bitwise tests with
// the kernels rebound to the portable loops, so both bindings stay covered on
// a host that qualifies for the vector one.
func TestGELUEntryPointsPortable(t *testing.T) {
	defer PortableGELU()()
	t.Run("kernels", TestGELUKernelsMatchScalarBitwise)
	t.Run("fused epilogue", TestFusedEpilogueBitwise)
	t.Run("grad hadamard", TestGELUGradHadamardBitwise)
}

// TestGELUEntryPointsReachKernel checks the wiring: GELUTo, GELUGradHadamardTo
// and the fused epilogue go through the bound variables (a sentinel kernel is
// seen by all three), and the allocating GELU / GELUGrad that the serial nn
// reference uses do not.
func TestGELUEntryPointsReachKernel(t *testing.T) {
	defer PortableGELU()() // puts back the bindings it found, whatever is set below
	var fwd, bwd int
	geluTo = func(dst, src []float64) { fwd++; geluToGeneric(dst, src) }
	geluGradMulTo = func(dst, pre, dy []float64) { bwd++; geluGradMulToGeneric(dst, pre, dy) }

	rng := NewRNG(3)
	a, b := RandomMatrix(3, 4, rng), RandomMatrix(4, 5, rng)
	pre, act := New(3, 5), New(3, 5)
	GELUTo(act, pre)
	if fwd != 1 {
		t.Fatalf("GELUTo made %d kernel calls, want 1", fwd)
	}
	MatMulBiasGELUInto(act, pre, a, b, nil)
	if fwd != 1+pre.Rows {
		t.Fatalf("fused epilogue made %d kernel calls, want one per row", fwd-1)
	}
	GELUGradHadamardTo(act, pre, act)
	if bwd != 1 {
		t.Fatalf("GELUGradHadamardTo made %d kernel calls, want 1", bwd)
	}
	GELU(pre)
	GELUGrad(pre)
	if fwd != 1+pre.Rows || bwd != 1 {
		t.Fatal("the allocating GELU / GELUGrad must stay on geluScalar / geluGradScalar")
	}
}

// FuzzGELUBitwise hands the kernels eight raw bit patterns and a length: the
// patterns fill pre and (rotated by three) dy, so the fuzzer can put any float
// in any lane, tail lanes included. Both bindings run.
func FuzzGELUBitwise(f *testing.F) {
	edges := geluEdges()
	for i := 0; i < len(edges); i += 8 {
		var b [8]uint64
		for j := range b {
			b[j] = math.Float64bits(edges[(i+j)%len(edges)])
		}
		f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], uint8(i+5))
	}
	f.Fuzz(func(t *testing.T, b0, b1, b2, b3, b4, b5, b6, b7 uint64, nb uint8) {
		raw := [8]uint64{b0, b1, b2, b3, b4, b5, b6, b7}
		n := int(nb) % 33
		pre, dy := make([]float64, n), make([]float64, n)
		for i := range pre {
			pre[i] = math.Float64frombits(raw[i%8])
			dy[i] = math.Float64frombits(raw[(i+3)%8])
		}
		checkGELU(t, pre, dy)
		defer PortableGELU()()
		checkGELU(t, pre, dy)
	})
}
