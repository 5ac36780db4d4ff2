package seqpar

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The Transformer layers this family runs are package megatron's under the
// RowSharded bracket and are tested there, both brackets in one table; the
// tests here cover what the family adds: the shard-local patch embedding
// and the row-sharded Distribute/Collect adapter around the block.

// shard returns rank's row block of a replicated matrix.
func shard(m *tensor.Matrix, rank, p int) *tensor.Matrix {
	br := m.Rows / p
	return m.SubMatrix(rank*br, 0, br, m.Cols)
}

func TestShardLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 8
	for _, tp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dataRng := tensor.NewRNG(1)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)

			ref := nn.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			gws := testutil.NewCollector()
			gbs := testutil.NewCollector()
			testutil.Run(t, tp, func(w *dist.Worker) error {
				f := NewFamily(w, parallel.Layout{Family: "seqpar", Ranks: tp})
				l := newShardLinear(f, in, out, nn.ActGELU, true, tensor.NewRNG(9))
				y := l.Forward(shard(x, w.Rank(), tp))
				dx := l.Backward(shard(dy, w.Rank(), tp))
				f.DrainGradients()
				ys.Put(w.Rank(), f.Collect(y))
				dxs.Put(w.Rank(), f.Collect(dx))
				gws.Put(w.Rank(), l.W.Grad)
				gbs.Put(w.Rank(), l.B.Grad)
				return nil
			})
			for r := 0; r < tp; r++ {
				testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
				testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
				// Gradients sum over every rank's row shard, so after the
				// drain they match the serial full-batch gradients.
				testutil.CheckClose(t, "dW", gws.Get(r), ref.W.Grad, 1e-9)
				testutil.CheckClose(t, "dB", gbs.Get(r), ref.B.Grad, 1e-9)
			}
		})
	}
}

func TestBlockMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 2, 8
	for _, tp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dataRng := tensor.NewRNG(5)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(19))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			testutil.Run(t, tp, func(w *dist.Worker) error {
				f := NewFamily(w, parallel.Layout{Family: "seqpar", Ranks: tp})
				b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(19))
				y := b.Forward(f.Distribute(x))
				dx := b.Backward(f.Distribute(dy))
				ys.Put(w.Rank(), f.Collect(y))
				dxs.Put(w.Rank(), f.Collect(dx))
				return nil
			})
			for r := 0; r < tp; r++ {
				testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-8)
				testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-8)
			}
		})
	}
}

func TestLayoutRowShards(t *testing.T) {
	l, err := parallel.Validate(parallel.Layout{Family: "seqpar", Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.RowShards(); got != 4 {
		t.Fatalf("seqpar [4] RowShards = %d, want 4", got)
	}
}
