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

// The layers this family runs are package megatron's under the RowSharded
// bracket and are tested there, both brackets in one table; the tests here
// run them through the registration: the patch embedding, whose replicated
// gradient sums over the row shards, and the row-sharded Distribute/Collect
// adapter around the block.

// TestShardLinearMatchesSerial runs the patch embedding a family builds
// (parallel.ReplicatedLinear) against nn.Linear. Backward computes each
// rank's weight and bias gradients in place, bit for bit nn.Linear's on the
// rank's rows. On seqpar's row shards that is a partial, summed in place
// over the group by the all-reduce it starts: the ranks run their backward
// one after another, so every rank but the last still reads its own partial
// afterwards, and the last, whose issue completes the sum, already reads
// the whole gradient; DrainGradients waits the sum. On Megatron's replicated
// rows the partial is whole at once, and no gradient is deferred: the drain
// finds nothing queued and no all-reduce runs.
func TestShardLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 8
	for _, tc := range []struct {
		name   string
		family string
		p      int
	}{
		{"p1", "seqpar", 1}, {"p2", "seqpar", 2}, {"p4", "seqpar", 4},
		{"megatron/p2", "megatron", 2}, {"megatron/p4", "megatron", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			deferred := tc.family == "seqpar"
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
			undrainedW, undrainedB := testutil.NewCollector(), testutil.NewCollector()
			slices := make([]parallel.Slice, tc.p)
			turns := make([]chan struct{}, tc.p+1) // rank r backpropagates once turns[r] is closed
			for i := range turns {
				turns[i] = make(chan struct{})
			}
			close(turns[0])
			c := testutil.Run(t, tc.p, func(w *dist.Worker) error {
				f, err := parallel.New(w, parallel.Layout{Family: tc.family, Ranks: tc.p})
				if err != nil {
					return err
				}
				l := f.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
				<-turns[w.Rank()]
				y := l.Forward(f.Distribute(x))
				dx := l.Backward(f.Distribute(dy))
				wp := l.Params()[0]
				undrainedW.Put(w.Rank(), wp.Grad.Clone())
				undrainedB.Put(w.Rank(), l.Params()[1].Grad.Clone())
				slices[w.Rank()] = f.Slice(rows, in)
				close(turns[w.Rank()+1])
				f.DrainGradients()
				ys.Put(w.Rank(), f.Collect(y))
				dxs.Put(w.Rank(), f.Collect(dx))
				gws.Put(w.Rank(), wp.Grad)
				gbs.Put(w.Rank(), l.Params()[1].Grad)
				return nil
			})
			for r := 0; r < tc.p; r++ {
				testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
				testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
				// Gradients sum over every rank's row shard, so after the
				// drain they match the serial full-batch gradients.
				testutil.CheckClose(t, "dW", gws.Get(r), ref.W.Grad, 1e-9)
				testutil.CheckClose(t, "dB", gbs.Get(r), ref.B.Grad, 1e-9)
				if deferred && r == tc.p-1 {
					if !undrainedW.Get(r).Equal(gws.Get(r)) || !undrainedB.Get(r).Equal(gbs.Get(r)) {
						t.Errorf("rank %d: the last rank's issue completed the sum, yet its gradients changed in the drain", r)
					}
					continue
				}
				sl := slices[r]
				own := nn.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
				own.Forward(x.SubMatrix(sl.Row0, 0, sl.Rows, in))
				own.Backward(dy.SubMatrix(sl.Row0, 0, sl.Rows, out))
				if !undrainedW.Get(r).Equal(own.W.Grad) || !undrainedB.Get(r).Equal(own.B.Grad) {
					t.Errorf("rank %d: before the sum the gradients are not nn.Linear's on rows [%d, %d) bit for bit",
						r, sl.Row0, sl.Row0+sl.Rows)
				}
				if got := undrainedW.Get(r).Equal(gws.Get(r)); got == deferred {
					t.Errorf("rank %d: weight gradient whole before the sum = %v, want %v", r, got, !deferred)
				}
			}
			// seqpar sums the weight and the bias; Megatron sums nothing.
			want := int64(0)
			if deferred {
				want = 2
			}
			if got := c.Stats().PerOp["allreduce"].Calls; got != want {
				t.Errorf("%d all-reduces, want %d", got, want)
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
				f, err := parallel.New(w, parallel.Layout{Family: "seqpar", Ranks: tp})
				if err != nil {
					return err
				}
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
