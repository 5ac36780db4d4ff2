package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"
)

// The GEMM contract: at every shape — odd sizes, degenerate slivers, depths
// either side of the k block — the tiled kernel in all three orientations
// produces bitwise exactly the naive reference results.

func gemmShapes() []struct{ m, k, n int } {
	return []struct{ m, k, n int }{
		{1, 1, 1}, {1, 7, 1}, {3, 1, 5}, {2, 3, 2},
		{5, 5, 5}, {7, 11, 13}, {8, 8, 8}, {9, 17, 33},
		{16, 64, 16}, {31, 29, 37}, {64, 64, 64},
		{65, 63, 67}, // just past the microkernel widths
		{80, 80, 80},
		{81, 79, 83},
		{96, 128, 96},
		{1, 300, 257}, // k longer than gemmKC, sliver output
		{257, 300, 1}, // single-column output
	}
}

func TestMatMulMatchesNaiveBitwise(t *testing.T) {
	for _, s := range gemmShapes() {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(uint64(s.m*1000000 + s.k*1000 + s.n))
			a := RandomMatrix(s.m, s.k, rng)
			b := RandomMatrix(s.k, s.n, rng)
			want := New(s.m, s.n)
			matMulAccumNaive(want, a, b)
			if got := MatMul(a, b); !got.Equal(want) {
				t.Fatalf("MatMul diverges from naive kernel (max diff %g)", got.MaxAbsDiff(want))
			}
		})
	}
}

func TestMatMulNTMatchesNaiveBitwise(t *testing.T) {
	for _, s := range gemmShapes() {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(uint64(s.m*999 + s.k*99 + s.n))
			a := RandomMatrix(s.m, s.k, rng)
			b := RandomMatrix(s.n, s.k, rng) // C = A·Bᵀ is m×n
			want := New(s.m, s.n)
			matMulNTNaive(want, a, b)
			if got := MatMulNT(a, b); !got.Equal(want) {
				t.Fatalf("MatMulNT diverges from naive kernel (max diff %g)", got.MaxAbsDiff(want))
			}
		})
	}
}

// TestMatMulNTIntoMatchesNaiveBitwise checks the overwrite contract of the NT
// orientation at every shape: whatever C held, the result is the naive
// dot-product reference bit for bit.
func TestMatMulNTIntoMatchesNaiveBitwise(t *testing.T) {
	for _, s := range gemmShapes() {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(uint64(s.m*313 + s.k*31 + s.n))
			a := RandomMatrix(s.m, s.k, rng)
			b := RandomMatrix(s.n, s.k, rng) // C = A·Bᵀ is m×n
			want := New(s.m, s.n)
			matMulNTNaive(want, a, b)
			got := RandomMatrix(s.m, s.n, rng) // stale contents must be overwritten
			MatMulNTInto(got, a, b)
			if !got.Equal(want) {
				t.Fatalf("MatMulNTInto diverges from naive kernel (max diff %g)", got.MaxAbsDiff(want))
			}
		})
	}
	// Special values survive the strip panel: 0·NaN must stay NaN.
	a := FromRows([][]float64{{0, 1}, {2, 0}})
	b := FromRows([][]float64{{1, 3}, {2, 4}}) // bᵀ = {{1,2},{3,4}}
	b.Set(0, 0, math.NaN())
	want := New(2, 2)
	matMulNTNaive(want, a, b)
	got := New(2, 2)
	MatMulNTInto(got, a, b)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: tiled %v vs naive %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTNMatchesNaiveBitwise(t *testing.T) {
	for _, s := range gemmShapes() {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(uint64(s.m*77 + s.k*7 + s.n))
			a := RandomMatrix(s.k, s.m, rng) // C = Aᵀ·B is m×n
			b := RandomMatrix(s.k, s.n, rng)
			want := New(s.m, s.n)
			matMulTNNaive(want, a, b)
			if got := MatMulTN(a, b); !got.Equal(want) {
				t.Fatalf("MatMulTN diverges from naive kernel (max diff %g)", got.MaxAbsDiff(want))
			}
		})
	}
}

// TestMatMulTNIntoMatchesNaiveBitwise checks the += contract of the TN
// orientation (A read through swapped strides) at every shape — odd, ragged,
// and k not divisible by the k block: C is seeded with prior contents and
// must equal the naive accumulation onto the same seed.
func TestMatMulTNIntoMatchesNaiveBitwise(t *testing.T) {
	for _, s := range gemmShapes() {
		t.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(t *testing.T) {
			rng := NewRNG(uint64(s.m*517 + s.k*51 + s.n))
			a := RandomMatrix(s.k, s.m, rng) // C += Aᵀ·B is m×n
			b := RandomMatrix(s.k, s.n, rng)
			seed := RandomMatrix(s.m, s.n, rng)
			want := seed.Clone()
			matMulTNNaive(want, a, b)
			got := seed.Clone()
			MatMulTNInto(got, a, b)
			if !got.Equal(want) {
				t.Fatalf("MatMulTNInto diverges from naive kernel (max diff %g)", got.MaxAbsDiff(want))
			}
		})
	}
	// Special values survive the stride swap: 0·NaN must stay NaN.
	a := FromRows([][]float64{{0, 2}, {1, 0}}) // aᵀ = {{0,1},{2,0}}
	a.Set(0, 0, math.NaN())
	b := FromRows([][]float64{{1, 2}, {3, 4}})
	want := New(2, 2)
	matMulTNNaive(want, a, b)
	got := New(2, 2)
	MatMulTNInto(got, a, b)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: tiled %v vs naive %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestNarrowOutputMatchesNaiveBitwise pins the kernel at n of 4 and 8 — the
// per-rank projection widths of the test models, one half-empty strip or
// exactly one strip — to the naive reference at shapes that exercise full
// row tiles, the ragged trailing rows, and k on both sides of the k block.
func TestNarrowOutputMatchesNaiveBitwise(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 1, 4}, {1, 1, 8}, {2, 3, 4}, {3, 5, 8}, {7, 300, 4},
		{8, 511, 8}, {33, 100, 8}, {17, 53, 4}, {16, 256, 8}, {5, 1024, 4},
	} {
		rng := NewRNG(uint64(s.m*43 + s.k*17 + s.n))
		a := RandomMatrix(s.m, s.k, rng)
		b := RandomMatrix(s.k, s.n, rng)
		want := New(s.m, s.n)
		matMulAccumNaive(want, a, b)
		got := New(s.m, s.n)
		gemmRows(&gemmTask{op: opNN, c: got, a: a, b: b})
		if !got.Equal(want) {
			t.Fatalf("%dx%dx%d: narrow-output kernel diverges from naive (max diff %g)", s.m, s.k, s.n, got.MaxAbsDiff(want))
		}
	}
}

// TestGEMMRunsOnCallerGoroutine pins that a product large enough to have
// been split across goroutines runs on its caller's: the simulated cluster's
// rank goroutines are the host parallelism, and the package starts none.
func TestGEMMRunsOnCallerGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := NewRNG(256)
	a, b, c := RandomMatrix(256, 256, rng), RandomMatrix(256, 256, rng), New(256, 256)
	before := runtime.NumGoroutine()
	MatMulInto(c, a, b)
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("a 256x256x256 MatMulInto moved the goroutine count from %d to %d", before, after)
	}
}

// TestMatMulIntoAccumulatesBitwise checks the += contract survives the
// blocked kernel (two accumulations equal the naive double product).
func TestMatMulIntoAccumulatesBitwise(t *testing.T) {
	rng := NewRNG(5)
	a := RandomMatrix(9, 13, rng)
	b := RandomMatrix(13, 7, rng)
	got := New(9, 7)
	MatMulInto(got, a, b)
	MatMulInto(got, a, b)
	want := New(9, 7)
	matMulAccumNaive(want, a, b)
	matMulAccumNaive(want, a, b)
	if !got.Equal(want) {
		t.Fatalf("MatMulInto accumulation diverges from naive (max diff %g)", got.MaxAbsDiff(want))
	}
}

// TestGEMMSpecialValues pins the IEEE win of dropping the zero-skip branch:
// a zero in A against a NaN in B must poison the product (0·NaN is NaN),
// identically in the blocked and naive kernels.
func TestGEMMSpecialValues(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {2, 0}})
	nan := FromRows([][]float64{{1, 2}, {3, 4}})
	nan.Set(0, 0, math.NaN())
	got := MatMul(a, nan)
	want := New(2, 2)
	matMulAccumNaive(want, a, nan)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: blocked %v vs naive %v", i, got.Data[i], want.Data[i])
		}
	}
	if !math.IsNaN(got.At(0, 0)) { // 0·NaN + 1·3 must be NaN
		t.Fatalf("MatMul swallowed a NaN: got %g", got.At(0, 0))
	}
}

// TestGEMMIntoAllocatesNothing pins the strip panel to the stack: all three
// orientations, at a shape on the shallow panel, one on the deep panel and
// a larger one, run without a heap allocation.
func TestGEMMIntoAllocatesNothing(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{{8, 8, 32}, {9, 300, 13}, {96, 128, 96}} {
		rng := NewRNG(uint64(s.m + s.k + s.n))
		a, b := RandomMatrix(s.m, s.k, rng), RandomMatrix(s.k, s.n, rng)
		bt, at := RandomMatrix(s.n, s.k, rng), RandomMatrix(s.k, s.m, rng)
		c := New(s.m, s.n)
		for name, f := range map[string]func(){
			"MatMulInto":   func() { MatMulInto(c, a, b) },
			"MatMulNTInto": func() { MatMulNTInto(c, a, bt) },
			"MatMulTNInto": func() { MatMulTNInto(c, at, b) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("%s %dx%dx%d: %v allocations per run, want 0", name, s.m, s.k, s.n, allocs)
			}
		}
	}
}

// TestPackNNTracksItsSource: repacking reuses the buffer, a pack taken before
// the source changed multiplies against the old values and a repack against
// the new ones — the property a forward-only scope's per-Run refill rests
// on — and a packed matrix is refused everywhere its strip-ordered Data would
// be read as rows. The header stays one 64-byte size class.
func TestPackNNTracksItsSource(t *testing.T) {
	if size := unsafe.Sizeof(Matrix{}); size != 64 {
		t.Fatalf("Matrix is %d bytes, want 64", size)
	}
	rng := NewRNG(9)
	a, b := RandomMatrix(5, 33, rng), RandomMatrix(33, 11, rng)
	var view Matrix
	PackNN(&view, b)
	if !view.Packed() || b.Packed() || view.Rows != 33 || view.Cols != 11 {
		t.Fatal("PackNN did not make a packed 33x11")
	}
	buf := &view.Data[0]
	b.Data[7] += 1
	stale, want := New(5, 11), New(5, 11)
	MatMulInto(stale, a, &view)
	matMulAccumNaive(want, a, b)
	if stale.Equal(want) {
		t.Fatal("a pack taken before its source changed multiplied against the new values: the test cannot see staleness")
	}
	PackNN(&view, b)
	if &view.Data[0] != buf {
		t.Fatal("repacking a same-shaped source reallocated the buffer")
	}
	got := New(5, 11)
	MatMulInto(got, a, &view)
	if !got.Equal(want) {
		t.Fatal("product against the repacked operand differs from the naive kernel")
	}
	for name, misuse := range map[string]func(){
		"PackNN of a phantom":      func() { PackNN(new(Matrix), NewPhantom(4, 4)) },
		"PackNN of a pack":         func() { PackNN(new(Matrix), &view) },
		"CopyInto from a pack":     func() { CopyInto(New(33, 11), &view) },
		"a pack as the NT operand": func() { MatMulNTInto(New(5, 33), RandomMatrix(5, 11, rng), &view) },
		"a pack as the left side":  func() { MatMulInto(New(33, 4), &view, New(11, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
	}
}
