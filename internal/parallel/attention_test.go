package parallel

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestHeadAttentionMatchesSerial drives the shared per-head core with all
// heads local, between nn's own Q/K/V and output projections, and checks
// both directions against nn.MultiHeadAttention — bitwise, since the core
// runs the reference's operations in the reference's order.
func TestHeadAttentionMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 3, 6
	dataRng := tensor.NewRNG(4)
	x := tensor.RandomMatrix(rows, h, dataRng)
	dy := tensor.RandomMatrix(rows, h, dataRng)

	ref := nn.NewMultiHeadAttention(h, heads, seqLen, tensor.NewRNG(17))
	wantY := ref.Forward(x)
	wantDx := ref.Backward(dy)

	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		proj := nn.NewMultiHeadAttention(h, heads, seqLen, tensor.NewRNG(17))
		core := HeadAttention{Heads: heads, HeadDim: h / heads, SeqLen: seqLen}

		core.Split(w, tensor.HCat(proj.Wq.Forward(x), proj.Wk.Forward(x), proj.Wv.Forward(x)))
		if got := proj.Wo.Forward(core.Forward(w)); !got.Equal(wantY) {
			t.Errorf("forward differs from nn by %g", got.MaxAbsDiff(wantY))
		}

		dqkv := core.Backward(w, proj.Wo.Backward(dy))
		dx := proj.Wq.Backward(dqkv.SubMatrix(0, 0, rows, h))
		tensor.AddInPlace(dx, proj.Wk.Backward(dqkv.SubMatrix(0, h, rows, h)))
		tensor.AddInPlace(dx, proj.Wv.Backward(dqkv.SubMatrix(0, 2*h, rows, h)))
		if !dx.Equal(wantDx) {
			t.Errorf("backward differs from nn by %g", dx.MaxAbsDiff(wantDx))
		}

		live := w.Workspace().Stats().Live
		core.Release(w)
		if got, want := w.Workspace().Stats().Live, live-3-rows/seqLen*heads; got != want {
			t.Errorf("Release left %d live buffers, want %d (Q, K, V and every probability recycled)", got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if c.MaxClock() <= 0 {
		t.Fatal("the core must charge its arithmetic to the simulated clock")
	}
}
