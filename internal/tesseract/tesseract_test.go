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

// meshParity runs the parity harness on every mesh shape, a subtest each.
func meshParity(t *testing.T, p testutil.Parity) {
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			p.Check(t, parallel.Layout{Family: "tesseract", Q: ms.q, D: ms.d})
		})
	}
}

// blockDims are the sizes the attention, MLP and block pins run at: four
// sequences of two tokens, 8 wide, two heads.
var blockDims = testutil.Dims{H: 8, Heads: 2, SeqLen: 2, Rows: 8}

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

// xavier is the [rows, cols] weight a linear draws from seed.
func xavier(rows, cols int, seed uint64) *tensor.Matrix {
	return tensor.XavierMatrix(rows, cols, tensor.NewRNG(seed))
}

// weightBlock draws the calling rank's block of xavier(rows, cols, seed)
// where a linear cuts its weight (Figure 4b): the shard, with the rectangle
// it was cut at.
func weightBlock(p *Proc, rows, cols int, seed uint64) parallel.Shard {
	return newLinear(p, parallel.Draw(rows, cols, tensor.NewRNG(seed)), nn.ActNone, false).W
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
			gb := xavier(6, 4, 3)
			want := tensor.MatMul(ga, gb)
			results := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(f *Family) error {
				p := f.p
				lc := p.MatMulAB(f.Distribute(ga), weightBlock(p, 6, 4, 3).Value)
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
		wants.Put(p.W.Rank(), cutOf(want, weightBlock(p, want.Rows, want.Cols, 0)))
		return nil
	})
	for r := 0; r < 8; r++ {
		testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), wants.Get(r), 1e-9)
	}
}

// TestLinearForwardBackwardMatchesSerial holds the linear (GELU, bias) to
// nn.Linear on every mesh shape: output, input gradient and the weight and
// bias gradients every replica lands at the rectangle it was cut at.
func TestLinearForwardBackwardMatchesSerial(t *testing.T) {
	meshParity(t, testutil.Parity{Modules: testutil.Linear, Dims: testutil.Dims{In: 8, Out: 12, Rows: 8}, Seed: 10})
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
	meshParity(t, testutil.Parity{Modules: testutil.Attention, Dims: blockDims, Seed: 30})
}

func TestMLPMatchesSerial(t *testing.T) {
	meshParity(t, testutil.Parity{Modules: testutil.MLP, Dims: blockDims, Seed: 40})
}

func TestBlockMatchesSerial(t *testing.T) {
	meshParity(t, testutil.Parity{Modules: testutil.Block, Dims: blockDims, Seed: 50})
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

// TestBlockPhantomMatchesRealClock: the parity harness replays the block
// shape-only on phantoms and holds its clocks and traffic to the real run's.
func TestBlockPhantomMatchesRealClock(t *testing.T) {
	testutil.Parity{Modules: testutil.Block, Dims: blockDims, Seed: 5}.Check(t, parallel.Layout{Family: "tesseract", Q: 2, D: 2})
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
