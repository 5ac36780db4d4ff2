package tesseract

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestQuickMatMulMatchesSerial is the repository's central property test:
// for randomly drawn mesh shapes and matrix dimensions, Tesseract's
// Algorithm 3 must agree with a serial multiplication.
func TestQuickMatMulMatchesSerial(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		shapes := []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}, {3, 1}, {3, 3}}
		sh := shapes[rng.Intn(len(shapes))]
		q, d := sh.q, sh.d
		a := q * d * (1 + rng.Intn(3))
		b := q * (1 + rng.Intn(3))
		c := q * (1 + rng.Intn(3))
		ga := tensor.RandomMatrix(a, b, rng)
		gb := tensor.RandomMatrix(b, c, rng)
		want := tensor.MatMul(ga, gb)

		results := testutil.NewCollector()
		cluster := dist.New(dist.Config{WorldSize: q * q * d})
		err := cluster.Run(func(w *dist.Worker) error {
			p := NewProcAt(w, mesh.Shape{Q: q, D: d})
			lc := p.MatMulAB(p.DistributeA(ga), p.DistributeB(gb))
			results.Put(w.Rank(), p.CollectA(lc))
			return nil
		})
		if err != nil {
			return false
		}
		for r := 0; r < q*q*d; r++ {
			if !results.Get(r).AllClose(want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickGradientIdentity checks Eq. 3 as a property: for random shapes,
// MatMulABT(C', B) == C'·Bᵀ and MatMulATB(A, C') == Aᵀ·C' computed serially.
func TestQuickGradientIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		shapes := []struct{ q, d int }{{2, 1}, {2, 2}, {3, 1}}
		sh := shapes[rng.Intn(len(shapes))]
		q, d := sh.q, sh.d
		a := q * d * (1 + rng.Intn(2))
		b := q * (1 + rng.Intn(2))
		c := q * (1 + rng.Intn(2))
		gw := tensor.RandomMatrix(b, c, rng) // parameter
		gx := tensor.RandomMatrix(a, b, rng) // activation
		gdy := tensor.RandomMatrix(a, c, rng)
		wantDx := tensor.MatMulNT(gdy, gw)
		wantDw := tensor.MatMulTN(gx, gdy)

		dxs := testutil.NewCollector()
		dws := testutil.NewCollector()
		cluster := dist.New(dist.Config{WorldSize: q * q * d})
		err := cluster.Run(func(w *dist.Worker) error {
			p := NewProcAt(w, mesh.Shape{Q: q, D: d})
			lw := p.DistributeB(gw)
			lx := p.DistributeA(gx)
			ldy := p.DistributeA(gdy)
			dxs.Put(w.Rank(), p.CollectA(p.MatMulABT(ldy, lw)))
			dws.Put(w.Rank(), p.CollectB(p.MatMulATB(lx, ldy)))
			return nil
		})
		if err != nil {
			return false
		}
		return dxs.Get(0).AllClose(wantDx, 1e-9) && dws.Get(0).AllClose(wantDw, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDepthReplicaInvariant: after any forward+backward, the weight
// gradient shards at equal (i, j) across depth are identical — §3.1's
// all-reduce guarantee, checked as a property over random inputs.
func TestQuickDepthReplicaInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		const q, d = 2, 2
		x := tensor.RandomMatrix(8, 8, rng)
		dy := tensor.RandomMatrix(8, 8, rng)
		grads := testutil.NewCollector()
		cluster := dist.New(dist.Config{WorldSize: q * q * d})
		err := cluster.Run(func(w *dist.Worker) error {
			p := NewProcAt(w, mesh.Shape{Q: q, D: d})
			l := NewLinear(p, 8, 8, 0, true, tensor.NewRNG(seed^0xabc))
			l.Forward(p.DistributeA(x))
			l.Backward(p.DistributeA(dy))
			p.DrainGradients() // gradients are final only after the queued depth sync
			grads.Put(w.Rank(), l.W.Grad)
			return nil
		})
		if err != nil {
			return false
		}
		// Rank layout: k·q² + i·q + j; depth peers differ by q² = 4.
		for r := 0; r < q*q; r++ {
			if grads.Get(r).MaxAbsDiff(grads.Get(r+q*q)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLayerNormInvariants: distributed LayerNorm rows have ~zero mean
// and the output is invariant to adding a per-row constant to the input.
func TestQuickLayerNormInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		const q, d, h = 2, 2, 8
		x := tensor.RandomMatrix(8, h, rng)
		shift := tensor.RandomMatrix(8, 1, rng)
		xShift := tensor.AddColVector(x, shift)
		outs := testutil.NewCollector()
		outsShift := testutil.NewCollector()
		cluster := dist.New(dist.Config{WorldSize: q * q * d})
		err := cluster.Run(func(w *dist.Worker) error {
			p := NewProcAt(w, mesh.Shape{Q: q, D: d})
			l := NewLayerNorm(p, h)
			outs.Put(w.Rank(), p.CollectA(l.Forward(p.DistributeA(x))))
			l2 := NewLayerNorm(p, h)
			outsShift.Put(w.Rank(), p.CollectA(l2.Forward(p.DistributeA(xShift))))
			return nil
		})
		if err != nil {
			return false
		}
		y, ys := outs.Get(0), outsShift.Get(0)
		if !y.AllClose(ys, 1e-6) { // shift invariance
			return false
		}
		sums := tensor.RowSums(y)
		for i := 0; i < sums.Rows; i++ {
			if v := sums.At(i, 0); v > 1e-8 || v < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
