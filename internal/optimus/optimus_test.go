package optimus

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tesseract"
	"repro/internal/testutil"
)

func TestMatMulABMatchesSerial(t *testing.T) {
	for _, q := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			x := tensor.RandomMatrix(4*q, 3*q, tensor.NewRNG(uint64(q)))
			want := nn.NewLinear(3*q, 2*q, nn.ActNone, false, tensor.NewRNG(11)).Forward(x)
			results := testutil.NewCollector()
			testutil.Run(t, q*q, func(w *dist.Worker) error {
				f := NewFamily(w, q)
				l := f.NewLinear(3*q, 2*q, nn.ActNone, false, tensor.NewRNG(11))
				results.Put(w.Rank(), f.Collect(l.Forward(f.Distribute(x))))
				return nil
			})
			testutil.CheckClose(t, "C", results.Get(0), want, 1e-9)
		})
	}
}

func TestBlockMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 2, 2, 8
	for _, q := range []int{1, 2} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			dataRng := tensor.NewRNG(6)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(31))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			testutil.Run(t, q*q, func(w *dist.Worker) error {
				f := NewFamily(w, q)
				b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(31))
				y := b.Forward(f.Distribute(x))
				dx := b.Backward(f.Distribute(dy))
				ys.Put(w.Rank(), f.Collect(y))
				dxs.Put(w.Rank(), f.Collect(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-8)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-8)
		})
	}
}

func TestCoordsExposed(t *testing.T) {
	testutil.Run(t, 4, func(w *dist.Worker) error {
		f := NewFamily(w, 2)
		want := parallel.Layout{Family: "optimus", Q: 2, D: 1, Ranks: 4}
		if f.Name() != "optimus" || f.Layout() != want {
			t.Errorf("family %q layout %+v, want %+v", f.Name(), f.Layout(), want)
		}
		if f.RowShards() != 2 {
			t.Errorf("Optimus must be a depth-1 mesh: %d row shards on q=2", f.RowShards())
		}
		// Rank r sits at grid row r/2, grid column r%2 of the one layer.
		got := f.Slice(4, 6)
		if want := (parallel.Slice{Row0: w.Rank() / 2 * 2, Col0: w.Rank() % 2 * 3, Rows: 2, Cols: 3}); got != want {
			t.Errorf("rank %d holds %+v, want %+v", w.Rank(), got, want)
		}
		return nil
	})
}

func TestMLPMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	dataRng := tensor.NewRNG(7)
	x := tensor.RandomMatrix(rows, h, dataRng)
	dy := tensor.RandomMatrix(rows, h, dataRng)
	ref := nn.NewMLP(h, tensor.NewRNG(37))
	wantY := ref.Forward(x)
	wantDx := ref.Backward(dy)
	ys := testutil.NewCollector()
	dxs := testutil.NewCollector()
	testutil.Run(t, 4, func(w *dist.Worker) error {
		// Optimus' feed-forward module is the shared one over Tesseract's
		// linears on the depth-1 mesh.
		f := NewFamily(w, 2)
		m := parallel.NewMLP(f, h, tensor.NewRNG(37))
		y := m.Forward(f.Distribute(x))
		dx := m.Backward(f.Distribute(dy))
		ys.Put(w.Rank(), f.Collect(y))
		dxs.Put(w.Rank(), f.Collect(dx))
		return nil
	})
	testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
	testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
}

// TestOptimusIsTesseractDepthOne: the paper's Tables 1-2 show Optimus [q,q]
// ≈ Tesseract [q,q,1]; here the family is the depth-1 Tesseract family
// under another name, so one Transformer block agrees bit for bit — outputs,
// input gradients, simulated clock and traffic.
func TestOptimusIsTesseractDepthOne(t *testing.T) {
	const h, heads, seqLen, rows, q = 8, 2, 2, 8, 2
	dataRng := tensor.NewRNG(6)
	x := tensor.RandomMatrix(rows, h, dataRng)
	dy := tensor.RandomMatrix(rows, h, dataRng)
	run := func(family func(w *dist.Worker) parallel.Family) (*dist.Cluster, *testutil.Collector, *testutil.Collector) {
		ys, dxs := testutil.NewCollector(), testutil.NewCollector()
		c := testutil.Run(t, q*q, func(w *dist.Worker) error {
			f := family(w)
			b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(31))
			ys.Put(w.Rank(), b.Forward(f.Distribute(x)))
			dxs.Put(w.Rank(), b.Backward(f.Distribute(dy)))
			f.DrainGradients()
			return nil
		})
		return c, ys, dxs
	}
	oc, oys, odxs := run(func(w *dist.Worker) parallel.Family { return NewFamily(w, q) })
	tc, tys, tdxs := run(func(w *dist.Worker) parallel.Family { return tesseract.NewFamily(w, q, 1) })
	sameBits := func(a, b *tensor.Matrix) bool {
		if !a.SameShape(b) {
			return false
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				return false
			}
		}
		return true
	}
	for r := 0; r < q*q; r++ {
		if !sameBits(oys.Get(r), tys.Get(r)) || !sameBits(odxs.Get(r), tdxs.Get(r)) {
			t.Fatalf("rank %d: optimus [2,2] block differs bitwise from tesseract [2,2,1]", r)
		}
	}
	if oc.MaxClock() <= 0 || oc.MaxClock() != tc.MaxClock() {
		t.Fatalf("optimus clock %g != tesseract d=1 clock %g", oc.MaxClock(), tc.MaxClock())
	}
	os, ts := oc.Stats(), tc.Stats()
	if os.Messages != ts.Messages || os.Bytes != ts.Bytes {
		t.Fatalf("optimus traffic %+v != tesseract d=1 traffic %+v", os, ts)
	}
}
