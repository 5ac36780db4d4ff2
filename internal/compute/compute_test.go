package compute

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// withWorker runs fn on a single-worker cluster and returns the final clock.
func withWorker(t *testing.T, fn func(w *dist.Worker)) float64 {
	t.Helper()
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		fn(w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return c.MaxClock()
}

func TestMatMulChargesAndComputes(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := tensor.RandomMatrix(3, 4, rng)
	b := tensor.RandomMatrix(4, 5, rng)
	got := tensor.New(3, 5)
	clock := withWorker(t, func(w *dist.Worker) {
		MatMulInto(w, got, a, b)
	})
	if got.MaxAbsDiff(tensor.MatMul(a, b)) != 0 {
		t.Fatal("charged MatMulInto must compute the same product")
	}
	want := 2.0 * 3 * 5 * 4 / dist.MeluxinaModel().FLOPS
	if math.Abs(clock-want) > 1e-25 {
		t.Fatalf("clock %g, want %g", clock, want)
	}
}

func TestTransposedVariantsChargeSameFlops(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := tensor.RandomMatrix(4, 6, rng)
	bNT := tensor.RandomMatrix(5, 6, rng)
	bTN := tensor.RandomMatrix(4, 5, rng)
	cNT := withWorker(t, func(w *dist.Worker) { MatMulNTInto(w, tensor.New(4, 5), a, bNT) })
	cTN := withWorker(t, func(w *dist.Worker) { MatMulTNInto(w, tensor.New(6, 5), a, bTN) })
	// Both are 2·m·n·k with the same m·n·k product (4·6·5).
	if want := 2.0 * 4 * 6 * 5 / dist.MeluxinaModel().FLOPS; cNT != cTN || math.Abs(cNT-want) > 1e-25 {
		t.Fatalf("NT charge %g, TN charge %g, want both %g", cNT, cTN, want)
	}
}

func TestPhantomChargesEqualReal(t *testing.T) {
	chain := func(mk func(rows, cols int) *tensor.Matrix) func(w *dist.Worker) {
		return func(w *dist.Worker) {
			x, y, z := mk(6, 6), mk(6, 6), mk(6, 6)
			GELUTo(w, y, x)
			SoftmaxRowsTo(w, z, y)
			AddTo(w, z, z, z)
			ColSumsInto(w, mk(1, 6), z)
			MatMulBiasGELUInto(w, y, x, z, z, mk(1, 6))
		}
	}
	rng := tensor.NewRNG(3)
	realClock := withWorker(t, chain(func(r, c int) *tensor.Matrix { return tensor.RandomMatrix(r, c, rng) }))
	phClock := withWorker(t, chain(tensor.NewPhantom))
	if realClock <= 0 || realClock != phClock {
		t.Fatalf("phantom clock %g != real clock %g", phClock, realClock)
	}
}

// TestElementwiseResults: every charged wrapper computes exactly what its
// tensor kernel computes and advances the clock by its per-element flop
// estimate — the two halves the package exists to keep together.
func TestElementwiseResults(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := tensor.RandomMatrix(3, 3, rng)
	b := tensor.RandomMatrix(3, 3, rng)
	v := tensor.RandomMatrix(1, 3, rng)
	soft := tensor.SoftmaxRows(a)
	const size = 3 * 3
	gemm := 2.0 * 3 * 3 * 3
	for _, tc := range []struct {
		name  string
		flops float64
		run   func(w *dist.Worker) *tensor.Matrix
		want  func() *tensor.Matrix
	}{
		{"AddTo", size * FlopsPerAdd,
			func(w *dist.Worker) *tensor.Matrix { d := tensor.New(3, 3); AddTo(w, d, a, b); return d },
			func() *tensor.Matrix { return tensor.Add(a, b) }},
		{"AddRowVectorInPlace", size * FlopsPerAdd,
			func(w *dist.Worker) *tensor.Matrix { d := a.Clone(); AddRowVectorInPlace(w, d, v); return d },
			func() *tensor.Matrix { return tensor.AddRowVector(a, v) }},
		{"ColSumsInto", size * FlopsPerAdd,
			func(w *dist.Worker) *tensor.Matrix { d := tensor.New(1, 3); ColSumsInto(w, d, a); return d },
			func() *tensor.Matrix { return tensor.ColSums(a) }},
		{"GELUTo", size * FlopsPerGELU,
			func(w *dist.Worker) *tensor.Matrix { d := tensor.New(3, 3); GELUTo(w, d, a); return d },
			func() *tensor.Matrix { return tensor.GELU(a) }},
		{"GELUGradHadamardTo", size * (FlopsPerGELU + FlopsPerAdd),
			func(w *dist.Worker) *tensor.Matrix { d := tensor.New(3, 3); GELUGradHadamardTo(w, d, a, b); return d },
			func() *tensor.Matrix { return tensor.Mul(b, tensor.GELUGrad(a)) }},
		{"SoftmaxRowsTo", size * FlopsPerSoftmax,
			func(w *dist.Worker) *tensor.Matrix { d := tensor.New(3, 3); SoftmaxRowsTo(w, d, a); return d },
			func() *tensor.Matrix { return soft }},
		{"SoftmaxRowsBackwardTo", size * FlopsPerSoftmax,
			func(w *dist.Worker) *tensor.Matrix {
				d := tensor.New(3, 3)
				SoftmaxRowsBackwardTo(w, d, soft, b)
				return d
			},
			func() *tensor.Matrix { return tensor.SoftmaxRowsBackward(soft, b) }},
		{"MatMulBiasInto", gemm + size*FlopsPerAdd,
			func(w *dist.Worker) *tensor.Matrix { d := tensor.New(3, 3); MatMulBiasInto(w, d, a, b, v); return d },
			func() *tensor.Matrix { return tensor.AddRowVector(tensor.MatMul(a, b), v) }},
		{"MatMulBiasGELUInto", gemm + size*FlopsPerAdd + size*FlopsPerGELU,
			func(w *dist.Worker) *tensor.Matrix {
				act := tensor.New(3, 3)
				MatMulBiasGELUInto(w, act, tensor.New(3, 3), a, b, v)
				return act
			},
			func() *tensor.Matrix { return tensor.GELU(tensor.AddRowVector(tensor.MatMul(a, b), v)) }},
	} {
		var got *tensor.Matrix
		clock := withWorker(t, func(w *dist.Worker) { got = tc.run(w) })
		if got.MaxAbsDiff(tc.want()) != 0 {
			t.Errorf("%s: result differs from the tensor kernel", tc.name)
		}
		if want := tc.flops / dist.MeluxinaModel().FLOPS; math.Abs(clock-want) > 1e-25 {
			t.Errorf("%s: clock %g, want %g flops = %g", tc.name, clock, tc.flops, want)
		}
	}
}

// TestMatMulIntoWrappersAllocateNothing: the charged GEMM wrappers add only
// clock arithmetic to the tensor kernels — no workspace panel, no heap.
func TestMatMulIntoWrappersAllocateNothing(t *testing.T) {
	rng := tensor.NewRNG(7)
	const m, k, n = 12, 300, 20
	a, b := tensor.RandomMatrix(m, k, rng), tensor.RandomMatrix(k, n, rng)
	bt, at := tensor.RandomMatrix(n, k, rng), tensor.RandomMatrix(k, m, rng)
	c := tensor.New(m, n)
	withWorker(t, func(w *dist.Worker) {
		gets := w.Workspace().Stats().Gets
		for name, f := range map[string]func(){
			"MatMulInto":   func() { MatMulInto(w, c, a, b) },
			"MatMulNTInto": func() { MatMulNTInto(w, c, a, bt) },
			"MatMulTNInto": func() { MatMulTNInto(w, c, at, b) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Errorf("%s: %v allocations per run, want 0", name, allocs)
			}
		}
		if got := w.Workspace().Stats().Gets; got != gets {
			t.Errorf("GEMM wrappers drew %d workspace buffers, want 0", got-gets)
		}
	})
}
