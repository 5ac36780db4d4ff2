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
// (a whole-weight parallel.Dense) through the parity harness, and then holds
// its gradients before the sum. Backward computes each
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
			l := parallel.Layout{Family: tc.family, Ranks: tc.p}
			testutil.Parity{Modules: testutil.Linear, Dims: testutil.Dims{In: in, Out: out, Rows: rows}, Seed: 1}.Check(t, l)
			deferred := tc.family == "seqpar"
			dataRng := tensor.NewRNG(1)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)
			gws, gbs := testutil.NewCollector(), testutil.NewCollector()
			undrainedW, undrainedB := testutil.NewCollector(), testutil.NewCollector()
			slices := make([]parallel.Slice, tc.p)
			turns := make([]chan struct{}, tc.p+1) // rank r backpropagates once turns[r] is closed
			for i := range turns {
				turns[i] = make(chan struct{})
			}
			close(turns[0])
			c := testutil.Run(t, tc.p, func(w *dist.Worker) error {
				f, err := parallel.New(w, l)
				if err != nil {
					return err
				}
				lin := f.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
				<-turns[w.Rank()]
				lin.Forward(f.Distribute(x))
				lin.Backward(f.Distribute(dy))
				wp, bp := lin.Params()[0], lin.Params()[1]
				undrainedW.Put(w.Rank(), wp.Grad.Clone())
				undrainedB.Put(w.Rank(), bp.Grad.Clone())
				slices[w.Rank()] = f.Slice(rows, in)
				close(turns[w.Rank()+1])
				f.DrainGradients()
				gws.Put(w.Rank(), wp.Grad)
				gbs.Put(w.Rank(), bp.Grad)
				return nil
			})
			for r := 0; r < tc.p; r++ {
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

// TestBlockMatchesSerial runs the parity harness on the block this
// registration builds, at p = 1, 2 and 4.
func TestBlockMatchesSerial(t *testing.T) {
	for _, tp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dims := testutil.Dims{H: 8, Heads: 4, SeqLen: 2, Rows: 8}
			testutil.Parity{Modules: testutil.Block, Dims: dims, Seed: 5}.Check(t, parallel.Layout{Family: "seqpar", Ranks: tp})
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
