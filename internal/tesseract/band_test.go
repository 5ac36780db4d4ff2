package tesseract

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// bandRun trains one Transformer block (hidden 16, 4 heads, sequences of 2,
// two sequences per activation block) on the [q,q,d] mesh for steps Adam
// steps, each closed by the step boundary, with an MSE loss on the collected
// output. It returns rank 0's losses and calls each, if set, on every rank
// after the last step.
func bandRun(t *testing.T, q, d, steps int, each func(p *Proc, b parallel.Layer, opt *nn.Adam)) []float64 {
	t.Helper()
	const h, heads, seqLen = 16, 4, 2
	rows := 2 * seqLen * q * d
	rng := tensor.NewRNG(80)
	xs, targets := make([]*tensor.Matrix, steps), make([]*tensor.Matrix, steps)
	for i := range xs {
		xs[i], targets[i] = tensor.RandomMatrix(rows, h, rng), tensor.RandomMatrix(rows, h, rng)
	}
	losses := make([]float64, steps)
	runMesh(t, q, d, func(f *Family) error {
		p := f.p
		b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(81))
		opt := nn.NewAdam(1e-2, 0.1)
		for i := range steps {
			loss, dy := nn.MSE(f.Collect(b.Forward(f.Distribute(xs[i]))), targets[i])
			if p.W.Rank() == 0 {
				losses[i] = loss
			}
			b.Backward(f.Distribute(dy))
			f.DrainGradients()
			opt.Step(b.Params())
			f.EndStep()
		}
		if each != nil {
			each(p, b, opt)
		}
		return nil
	})
	return losses
}

// TestBandMomentsAreRowBands: on [2,2,2] and [4,4,4], depth member k's
// optimiser holds the moments of rows [k·r/d, (k+1)·r/d) of every weight
// block — [r/d, c] — and full moments for every bias and layer-norm
// parameter, whose one row d does not divide.
func TestBandMomentsAreRowBands(t *testing.T) {
	for _, qd := range [][2]int{{2, 2}, {4, 4}} {
		q, d := qd[0], qd[1]
		var mu sync.Mutex
		bandRun(t, q, d, 1, func(p *Proc, b parallel.Layer, opt *nn.Adam) {
			mu.Lock()
			defer mu.Unlock()
			for _, pa := range b.Params() {
				m, v := opt.Moments(pa)
				r, c := pa.Value.Rows, pa.Value.Cols
				lo, hi := pa.Band()
				wantLo, wantHi := 0, r
				if pa.Name == "tesseract.linear.w" {
					wantLo, wantHi = p.K*r/d, (p.K+1)*r/d
				}
				if lo != wantLo || hi != wantHi {
					t.Errorf("[%d,%d,%d] rank %d %s %dx%d: band [%d, %d), want [%d, %d)", q, q, d, p.W.Rank(), pa.Name, r, c, lo, hi, wantLo, wantHi)
				}
				for _, mom := range []*tensor.Matrix{m, v} {
					if mom == nil || mom.Rows != wantHi-wantLo || mom.Cols != c {
						t.Errorf("[%d,%d,%d] rank %d %s %dx%d: moments %v, want %dx%d", q, q, d, p.W.Rank(), pa.Name, r, c, mom, wantHi-wantLo, c)
					}
				}
			}
		})
	}
}

// TestDepthReplicasBitwiseAfterSteps: after four steps, each stepping only
// its depth member's bands and each closed by the boundary's gather, every
// depth replica of every parameter holds the same bits.
func TestDepthReplicasBitwiseAfterSteps(t *testing.T) {
	const q, d = 2, 2
	values := make([][]*tensor.Matrix, mesh.Shape{Q: q, D: d}.Size())
	bandRun(t, q, d, 4, func(p *Proc, b parallel.Layer, _ *nn.Adam) {
		for _, pa := range b.Params() {
			if pa.Stale() {
				t.Errorf("rank %d %s: stale after the step boundary", p.W.Rank(), pa.Name)
			}
			values[p.W.Rank()] = append(values[p.W.Rank()], pa.Value.Clone())
		}
	})
	for r := range values {
		k0 := r % (q * q) // the same grid position on depth layer 0
		for i, v := range values[r] {
			if !v.Equal(values[k0][i]) {
				t.Errorf("rank %d parameter %d differs from its depth-0 replica on rank %d by %g", r, i, k0, v.MaxAbsDiff(values[k0][i]))
			}
		}
	}
}

// TestBandedLossesPinned: splitting the optimiser over the depth fibre
// moves no bit of training. The first four [2,2,2] losses are the ones
// every depth member stepping its whole replica gave, bit for bit.
func TestBandedLossesPinned(t *testing.T) {
	want := []uint64{0x3ff3cc4c296c5feb, 0x3ff506fe87d130f6, 0x3ff69e44ce95d9ad, 0x3ff66c54be77800b} // every member stepping its whole replica
	for i, loss := range bandRun(t, 2, 2, 4, nil) {
		if got := math.Float64bits(loss); got != want[i] {
			t.Errorf("step %d loss %v (%#x), want %v (%#x)", i, loss, got, math.Float64frombits(want[i]), want[i])
		}
	}
}

// TestForwardBeforeBoundaryPanics: a forward that reaches a weight whose
// band an optimiser stepped, with no step boundary since, panics and names
// the missing boundary, instead of computing with the other members' stale
// rows.
func TestForwardBeforeBoundaryPanics(t *testing.T) {
	const h, heads, seqLen, rows = 16, 4, 2, 8
	x := tensor.RandomMatrix(rows, h, tensor.NewRNG(82))
	s := mesh.Shape{Q: 2, D: 2}
	err := dist.New(dist.Config{WorldSize: s.Size()}).Run(func(w *dist.Worker) error {
		f := meshFamily(w, s.Q, s.D)
		b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(81))
		opt := nn.NewAdam(1e-2, 0)
		y := b.Forward(f.Distribute(x))
		b.Backward(y)
		f.DrainGradients()
		opt.Step(b.Params())
		b.Forward(f.Distribute(x))
		return fmt.Errorf("rank %d: the forward after an unclosed step ran", w.Rank())
	})
	if err == nil || !strings.Contains(err.Error(), "EndStep") {
		t.Fatalf("got %v, want a panic naming the missing step boundary (EndStep)", err)
	}
}
