package tesseract

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/summa"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestAsyncGradSyncMatchesBlockingBitwise holds the queued gradient path to
// the old synchronous contract: for a full Linear forward+backward on
// [1,1,1], [2,2,1] and [2,2,2], the gradients left behind by
// QueueGradSync + DrainGradients must equal — bit for bit, on every rank —
// a reference that runs the layer-partial product and the §3.1 depth
// all-reduce fully blocking, exactly as Linear.Backward used to.
func TestAsyncGradSyncMatchesBlockingBitwise(t *testing.T) {
	const in, out, rows = 8, 8, 8
	for _, ms := range []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(61)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)
			world := ms.q * ms.q * ms.d

			gotW := make([]*tensor.Matrix, world)
			gotB := make([]*tensor.Matrix, world)
			wantW := make([]*tensor.Matrix, world)
			wantB := make([]*tensor.Matrix, world)
			testutil.Run(t, world, func(w *dist.Worker) error {
				p := NewProcAt(w, mesh.Shape{Q: ms.q, D: ms.d})

				// Live path: Backward queues, DrainGradients completes.
				l := NewLinear(p, in, out, nn.ActGELU, true, tensor.NewRNG(71))
				l.Forward(p.DistributeA(x))
				l.Backward(p.DistributeA(dy))
				p.DrainGradients()
				gotW[w.Rank()] = l.W.Grad.Clone()
				if l.B != nil {
					gotB[w.Rank()] = l.B.Grad.Clone()
				}

				// Blocking reference: same math, every collective
				// synchronous, accumulation immediate (the pre-async
				// schedule of Linear.Backward).
				ref := NewLinear(p, in, out, nn.ActGELU, true, tensor.NewRNG(71))
				ref.Forward(p.DistributeA(x))
				ldy := p.DistributeA(dy)
				g := tensor.GELUGrad(ref.pre)
				gdy := tensor.Mul(ldy, g)
				gw := summa.MulATB(p.Proc, ref.x, gdy)
				p.Depth.AllReduceInto(p.W, gw, gw)
				ref.W.AccumGrad(gw)
				if p.I == 0 {
					db := tensor.ColSums(gdy)
					r := tensor.New(1, gdy.Cols)
					p.Col.ReduceInto(p.W, p.ColRank(0), db, r)
					p.Depth.AllReduceInto(p.W, r, r)
					ref.B.AccumGrad(r)
				} else {
					p.Col.ReduceInto(p.W, p.ColRank(0), tensor.ColSums(gdy), nil)
				}
				wantW[w.Rank()] = ref.W.Grad.Clone()
				if ref.B != nil {
					wantB[w.Rank()] = ref.B.Grad.Clone()
				}
				return nil
			})
			for r := 0; r < world; r++ {
				if !gotW[r].Equal(wantW[r]) {
					t.Fatalf("rank %d: async dW differs bitwise from blocking sync (max diff %g)", r, gotW[r].MaxAbsDiff(wantW[r]))
				}
				if (gotB[r] == nil) != (wantB[r] == nil) {
					t.Fatalf("rank %d: bias gradient presence mismatch", r)
				}
				if gotB[r] != nil && !gotB[r].Equal(wantB[r]) {
					t.Fatalf("rank %d: async dB differs bitwise from blocking sync (max diff %g)", r, gotB[r].MaxAbsDiff(wantB[r]))
				}
			}
		})
	}
}

// TestDrainGradientsIdempotentAndRequired: draining twice is harmless, and
// on a depth-1 mesh gradients are final without any drain at all.
func TestDrainGradientsIdempotentAndRequired(t *testing.T) {
	const in, out, rows = 4, 4, 4
	rng := tensor.NewRNG(5)
	x := tensor.RandomMatrix(rows, in, rng)
	dy := tensor.RandomMatrix(rows, out, rng)
	testutil.Run(t, 4, func(w *dist.Worker) error {
		p := NewProcAt(w, mesh.Shape{Q: 2, D: 1})
		l := NewLinear(p, in, out, nn.ActNone, false, tensor.NewRNG(9))
		l.Forward(p.DistributeA(x))
		l.Backward(p.DistributeA(dy))
		// d == 1: the queue short-circuits, gradients are already final.
		before := l.W.Grad.Clone()
		p.DrainGradients()
		p.DrainGradients()
		if !l.W.Grad.Equal(before) {
			return fmt.Errorf("rank %d: redundant drains perturbed the gradient", w.Rank())
		}
		return nil
	})
}
