package tesseract

import (
	"testing"
	"testing/quick"

	"repro/internal/dist"
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
		bseed := rng.Uint64()
		gb := xavier(b, c, bseed)
		want := tensor.MatMul(ga, gb)

		results := testutil.NewCollector()
		cluster := dist.New(dist.Config{WorldSize: q * q * d})
		err := cluster.Run(func(w *dist.Worker) error {
			f := meshFamily(w, q, d)
			p := f.p
			lc := p.MatMulAB(f.Distribute(ga), weightBlock(p, b, c, bseed).Value)
			results.Put(w.Rank(), f.Collect(lc))
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
		wseed := rng.Uint64()
		gw := xavier(b, c, wseed)            // parameter
		gx := tensor.RandomMatrix(a, b, rng) // activation
		gdy := tensor.RandomMatrix(a, c, rng)
		wantDx := tensor.MatMulNT(gdy, gw)
		wantDw := tensor.MatMulTN(gx, gdy)

		dxs := testutil.NewCollector()
		dws, wantDws := testutil.NewCollector(), testutil.NewCollector()
		cluster := dist.New(dist.Config{WorldSize: q * q * d})
		err := cluster.Run(func(w *dist.Worker) error {
			f := meshFamily(w, q, d)
			p := f.p
			lw := weightBlock(p, b, c, wseed)
			lx := f.Distribute(gx)
			ldy := f.Distribute(gdy)
			dxs.Put(w.Rank(), f.Collect(p.MatMulABT(ldy, lw.Value)))
			// dW is B-distributed: the weight's block, at its rectangle.
			dws.Put(w.Rank(), p.MatMulATB(lx, ldy))
			wantDws.Put(w.Rank(), cutOf(wantDw, lw))
			return nil
		})
		if err != nil {
			return false
		}
		for r := 0; r < q*q*d; r++ {
			if !dws.Get(r).AllClose(wantDws.Get(r), 1e-9) {
				return false
			}
		}
		return dxs.Get(0).AllClose(wantDx, 1e-9)
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
			f := meshFamily(w, q, d)
			p := f.p
			l := NewLinear(p, 8, 8, 0, true, tensor.NewRNG(seed^0xabc))
			l.Forward(f.Distribute(x))
			l.Backward(f.Distribute(dy))
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

// TestQuickLayerNormInvariants: the View layer norm's rows on a [2,2,2]
// mesh have ~zero mean and the output is invariant to adding a per-row
// constant to the input.
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
			f := meshFamily(w, q, d)
			l := f.NewLayerNorm(h)
			outs.Put(w.Rank(), f.Collect(l.Forward(f.Distribute(x))))
			l2 := f.NewLayerNorm(h)
			outsShift.Put(w.Rank(), f.Collect(l2.Forward(f.Distribute(xShift))))
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
