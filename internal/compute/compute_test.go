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
	var got *tensor.Matrix
	clock := withWorker(t, func(w *dist.Worker) {
		got = MatMul(w, a, b)
	})
	if got.MaxAbsDiff(tensor.MatMul(a, b)) != 0 {
		t.Fatal("charged MatMul must compute the same product")
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
	cNT := withWorker(t, func(w *dist.Worker) { MatMulNT(w, a, bNT) })
	cTN := withWorker(t, func(w *dist.Worker) { MatMulTN(w, a, bTN) })
	// Both are 2·m·n·k with the same m·n·k product (4·6·5).
	if cNT != cTN {
		t.Fatalf("NT charge %g != TN charge %g", cNT, cTN)
	}
}

func TestPhantomChargesEqualReal(t *testing.T) {
	rng := tensor.NewRNG(3)
	realClock := withWorker(t, func(w *dist.Worker) {
		x := tensor.RandomMatrix(6, 6, rng)
		y := GELU(w, x)
		z := SoftmaxRows(w, y)
		Add(w, z, z)
		ColSums(w, z)
	})
	phClock := withWorker(t, func(w *dist.Worker) {
		x := tensor.NewPhantom(6, 6)
		y := GELU(w, x)
		z := SoftmaxRows(w, y)
		Add(w, z, z)
		ColSums(w, z)
	})
	if realClock != phClock {
		t.Fatalf("phantom clock %g != real clock %g", phClock, realClock)
	}
}

func TestElementwiseResults(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := tensor.RandomMatrix(3, 3, rng)
	b := tensor.RandomMatrix(3, 3, rng)
	withWorker(t, func(w *dist.Worker) {
		if Sub(w, a, b).MaxAbsDiff(tensor.Sub(a, b)) != 0 {
			t.Error("Sub mismatch")
		}
		if Mul(w, a, b).MaxAbsDiff(tensor.Mul(a, b)) != 0 {
			t.Error("Mul mismatch")
		}
		if Scale(w, 2, a).MaxAbsDiff(tensor.Scale(2, a)) != 0 {
			t.Error("Scale mismatch")
		}
		v := tensor.RandomMatrix(1, 3, rng)
		if AddRowVector(w, a, v).MaxAbsDiff(tensor.AddRowVector(a, v)) != 0 {
			t.Error("AddRowVector mismatch")
		}
		g := GELUGrad(w, a)
		if g.MaxAbsDiff(tensor.GELUGrad(a)) != 0 {
			t.Error("GELUGrad mismatch")
		}
		s := SoftmaxRows(w, a)
		if SoftmaxRowsBackward(w, s, b).MaxAbsDiff(tensor.SoftmaxRowsBackward(s, b)) != 0 {
			t.Error("SoftmaxRowsBackward mismatch")
		}
		c := a.Clone()
		AddInPlace(w, c, b)
		if c.MaxAbsDiff(tensor.Add(a, b)) != 0 {
			t.Error("AddInPlace mismatch")
		}
		acc := tensor.New(3, 3)
		MatMulInto(w, acc, a, b)
		if acc.MaxAbsDiff(tensor.MatMul(a, b)) != 0 {
			t.Error("MatMulInto mismatch")
		}
	})
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
