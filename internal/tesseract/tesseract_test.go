package tesseract

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// shapes exercised by most equivalence tests: serial, 2-D, 2.5-D, 3-D.
var meshShapes = []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}}

// runMesh runs fn with every rank's family on the [q, q, d] mesh.
func runMesh(t *testing.T, q, d int, fn func(f *Family) error) *dist.Cluster {
	t.Helper()
	return testutil.Run(t, mesh.Shape{Q: q, D: d}.Size(), func(w *dist.Worker) error {
		return fn(meshFamily(w, q, d))
	})
}

// meshFamily attaches the calling worker to the [q, q, d] mesh through
// NewFamily; the family's Proc is f.p.
func meshFamily(w *dist.Worker, q, d int) *Family {
	return NewFamily(w, parallel.Layout{Family: "tesseract", Q: q, D: d, Ranks: q * q * d})
}

// weightBlock cuts the calling rank's block of m where a linear cuts its
// weight (Figure 4b): the shard, with the rectangle it was cut at.
func weightBlock(p *Proc, m *tensor.Matrix) parallel.Shard {
	return newLinear(p, parallel.Weight{Rows: m.Rows, Cols: m.Cols, Full: m}, nn.ActNone, false).W
}

// cutOf is the block of the serial tensor m at shard s's rectangle.
func cutOf(m *tensor.Matrix, s parallel.Shard) *tensor.Matrix {
	return m.SubMatrix(s.Row, s.Col, s.Value.Rows, s.Value.Cols)
}

func TestMatMulABMatchesSerial(t *testing.T) {
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			rng := tensor.NewRNG(1)
			ga := tensor.RandomMatrix(8, 6, rng)
			gb := tensor.RandomMatrix(6, 4, rng)
			want := tensor.MatMul(ga, gb)
			results := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				lc := p.MatMulAB(f.Distribute(ga), weightBlock(p, gb).Value)
				results.Put(p.W.Rank(), f.Collect(lc))
				return nil
			})
			testutil.CheckClose(t, "C", results.Get(0), want, 1e-9)
		})
	}
}

func TestMatMulATBDepthAllReduce(t *testing.T) {
	// The full Eq. 3 parameter gradient: per-layer partials summed across
	// depth must equal the serial Aᵀ·C' on every replica.
	rng := tensor.NewRNG(2)
	ga := tensor.RandomMatrix(8, 6, rng)
	gc := tensor.RandomMatrix(8, 4, rng)
	want := tensor.MatMulTN(ga, gc)
	results, wants := testutil.NewCollector(), testutil.NewCollector()
	runMesh(t, 2, 2, func(f *Family) error {
		p := f.p
		results.Put(p.W.Rank(), p.MatMulATB(f.Distribute(ga), f.Distribute(gc)))
		wants.Put(p.W.Rank(), cutOf(want, weightBlock(p, want)))
		return nil
	})
	for r := 0; r < 8; r++ {
		testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), wants.Get(r), 1e-9)
	}
}

func TestLinearForwardBackwardMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(10)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)

			ref := nn.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(42))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			gws, wantGws := testutil.NewCollector(), testutil.NewCollector()
			gbs, wantGbs := testutil.NewCollector(), testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				l := NewLinear(p, in, out, nn.ActGELU, true, tensor.NewRNG(42))
				y := l.Forward(f.Distribute(x))
				dx := l.Backward(f.Distribute(dy))
				p.DrainGradients() // gradients are final only after the queued depth sync completes
				ys.Put(p.W.Rank(), f.Collect(y))
				dxs.Put(p.W.Rank(), f.Collect(dx))
				// Every replica's gradient is the serial one's block at the
				// rectangle its weight was cut at (§3.1 keeps them equal).
				gws.Put(p.W.Rank(), l.W.Grad)
				wantGws.Put(p.W.Rank(), cutOf(ref.W.Grad, l.W))
				if l.B.Param != nil {
					gbs.Put(p.W.Rank(), l.B.Grad)
					wantGbs.Put(p.W.Rank(), cutOf(ref.B.Grad, l.B))
				}
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
			world := ms.q * ms.q * ms.d
			for r := 0; r < world; r++ {
				testutil.CheckClose(t, fmt.Sprintf("dW rank %d", r), gws.Get(r), wantGws.Get(r), 1e-9)
				if r < ms.q { // grid row 0 of depth layer 0 holds the bias
					testutil.CheckClose(t, fmt.Sprintf("dB rank %d", r), gbs.Get(r), wantGbs.Get(r), 1e-9)
				}
			}
		})
	}
}

// TestLayerNormMatchesSerial checks the View layer norm on a Tesseract
// mesh, fed the family's A-distributed blocks, against nn.LayerNorm.
func TestLayerNormMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(20)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewLayerNorm(h)
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				l := f.NewLayerNorm(h)
				y := l.Forward(f.Distribute(x))
				dx := l.Backward(f.Distribute(dy))
				ys.Put(p.W.Rank(), f.Collect(y))
				dxs.Put(p.W.Rank(), f.Collect(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

func TestLayerNormRowStatistics(t *testing.T) {
	// Forward output rows must have zero mean and unit variance across the
	// full hidden dimension even though it is split across processors.
	const h, rows = 8, 4
	rng := tensor.NewRNG(21)
	x := tensor.RandomMatrix(rows, h, rng)
	ys := testutil.NewCollector()
	runMesh(t, 2, 2, func(f *Family) error {
		p := f.p
		l := f.NewLayerNorm(h)
		y := l.Forward(f.Distribute(x))
		ys.Put(p.W.Rank(), f.Collect(y))
		return nil
	})
	y := ys.Get(0)
	for i := 0; i < rows; i++ {
		var sum, sq float64
		for j := 0; j < h; j++ {
			v := y.At(i, j)
			sum += v
			sq += v * v
		}
		mean := sum / float64(h)
		variance := sq/float64(h) - mean*mean
		if mean > 1e-9 || mean < -1e-9 {
			t.Fatalf("row %d mean %g", i, mean)
		}
		if variance < 0.9 || variance > 1.1 {
			t.Fatalf("row %d variance %g (eps-limited)", i, variance)
		}
	}
}

func TestAttentionMatchesSerial(t *testing.T) {
	const h, heads, seqLen = 8, 2, 2
	const rows = 8 // 4 sequences of 2 tokens
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(30)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewMultiHeadAttention(h, heads, seqLen, tensor.NewRNG(77))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				m := parallel.NewAttention(f, h, heads, seqLen, tensor.NewRNG(77))
				y := m.Forward(f.Distribute(x))
				dx := m.Backward(f.Distribute(dy))
				p.DrainGradients()
				ys.Put(p.W.Rank(), f.Collect(y))
				dxs.Put(p.W.Rank(), f.Collect(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

func TestMLPMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(40)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewMLP(h, tensor.NewRNG(88))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				m := parallel.NewMLP(f, h, tensor.NewRNG(88))
				y := m.Forward(f.Distribute(x))
				dx := m.Backward(f.Distribute(dy))
				p.DrainGradients()
				ys.Put(p.W.Rank(), f.Collect(y))
				dxs.Put(p.W.Rank(), f.Collect(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

func TestBlockMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 2, 2, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(50)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(99))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				m := f.NewBlock(h, heads, seqLen, tensor.NewRNG(99))
				y := m.Forward(f.Distribute(x))
				dx := m.Backward(f.Distribute(dy))
				p.DrainGradients()
				ys.Put(p.W.Rank(), f.Collect(y))
				dxs.Put(p.W.Rank(), f.Collect(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-8)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-8)
		})
	}
}

func TestTrainingStepsStayInSyncWithSerial(t *testing.T) {
	// Three Adam steps on a Block: the distributed model must track the
	// serial model's outputs, and the depth replicas of every parameter
	// must remain bit-compatible with each other.
	const h, heads, seqLen, rows, steps = 8, 2, 2, 8, 3
	dataRng := tensor.NewRNG(60)
	xs := make([]*tensor.Matrix, steps)
	targets := make([]*tensor.Matrix, steps)
	for i := range xs {
		xs[i] = tensor.RandomMatrix(rows, h, dataRng)
		targets[i] = tensor.RandomMatrix(rows, h, dataRng)
	}

	// Serial run.
	ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(7))
	refOpt := nn.NewAdam(1e-2, 0)
	wantLosses := make([]float64, steps)
	for i := 0; i < steps; i++ {
		y := ref.Forward(xs[i])
		loss, dy := nn.MSE(y, targets[i])
		wantLosses[i] = loss
		for _, p := range ref.Params() {
			p.ZeroGrad()
		}
		ref.Backward(dy)
		refOpt.Step(ref.Params())
	}

	losses := testutil.NewScalars()
	runMesh(t, 2, 2, func(f *Family) error {
		p := f.p
		b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(7))
		opt := nn.NewAdam(1e-2, 0)
		var lastLoss float64
		for i := 0; i < steps; i++ {
			y := b.Forward(f.Distribute(xs[i]))
			full := f.Collect(y)
			loss, dyFull := nn.MSE(full, targets[i])
			lastLoss = loss
			for _, pa := range b.Params() {
				pa.ZeroGrad()
			}
			b.Backward(f.Distribute(dyFull))
			p.DrainGradients()
			opt.Step(b.Params())
			f.EndStep()
			if i == 0 && loss != wantLosses[0] {
				// Loss is computed from the collected output; allow fp
				// noise from the distributed reductions.
				diff := loss - wantLosses[0]
				if diff > 1e-9 || diff < -1e-9 {
					t.Errorf("step 0 loss %g vs serial %g", loss, wantLosses[0])
				}
			}
		}
		losses.Put(p.W.Rank(), lastLoss)
		return nil
	})
	final := losses.Get(0)
	diff := final - wantLosses[steps-1]
	if diff > 1e-7 || diff < -1e-7 {
		t.Fatalf("after %d steps distributed loss %g diverged from serial %g", steps, final, wantLosses[steps-1])
	}
	if wantLosses[steps-1] >= wantLosses[0] {
		t.Fatalf("training did not reduce loss: %v", wantLosses)
	}
}

func TestBlockPhantomMatchesRealClock(t *testing.T) {
	const h, heads, seqLen, rows = 8, 2, 2, 8
	clock := func(phantom bool) float64 {
		c := dist.New(dist.Config{WorldSize: mesh.Shape{Q: 2, D: 2}.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			f := meshFamily(w, 2, 2)
			var b parallel.Layer
			var x *tensor.Matrix
			if phantom {
				b = f.NewBlockPhantom(h, heads, seqLen)
				x = tensor.NewPhantom(rows/4, h/2)
			} else {
				b = f.NewBlock(h, heads, seqLen, tensor.NewRNG(5))
				rng := tensor.NewRNG(uint64(w.Rank()) + 1)
				x = tensor.RandomMatrix(rows/4, h/2, rng)
			}
			y := b.Forward(x)
			b.Backward(y)
			f.p.DrainGradients()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	real, ph := clock(false), clock(true)
	if real <= 0 {
		t.Fatal("expected nonzero simulated time")
	}
	rel := (real - ph) / real
	if rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("phantom clock %g != real clock %g", ph, real)
	}
}

func TestBlockShapeValidation(t *testing.T) {
	runMesh(t, 2, 1, func(f *Family) error {
		defer func() { recover() }()
		parallel.NewAttention(f, 8, 3, 2, tensor.NewRNG(1)) // 3 heads not divisible by q=2
		t.Errorf("rank %d: expected panic for heads %% q != 0", f.p.W.Rank())
		return nil
	})
}

// TestABBlockShapeHelpers: a linear keeps its weight's B block and refuses
// a weight q does not divide; an activation's A block is the family's Slice
// (parallel.TestLayoutContract).
func TestABBlockShapeHelpers(t *testing.T) {
	runMesh(t, 2, 2, func(f *Family) error {
		p := f.p
		if w := NewLinear(p, 8, 6, nn.ActNone, false, nil).W.Value; w.Rows != 4 || w.Cols != 3 {
			t.Errorf("B block = %dx%d, want 4x3", w.Rows, w.Cols)
		}
		defer func() { recover() }()
		NewLinear(p, 8, 5, nn.ActNone, false, nil)
		t.Errorf("rank %d: expected panic for a 8x5 weight on q=2", p.W.Rank())
		return nil
	})
}
