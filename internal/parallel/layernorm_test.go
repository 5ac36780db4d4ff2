package parallel_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestLayerNorm builds View.NewLayerNorm on every registered family and
// checks it three ways.
//
//   - Against nn.LayerNorm, both directions: bit for bit where the columns
//     are whole (the 1-D families, a one-column mesh), within 1e-9 where the
//     grid row splits them and the row statistics are sums of partial sums.
//   - The row-statistics invariants on five seeds: every output row sums
//     to zero and has unit variance across the full hidden width, and
//     adding a per-row constant to the input leaves the output unchanged.
//   - The clock, pinned as rank 0's simulated seconds after five forward
//     and backward steps. Without a column group a pass is one Compute;
//     with one, the two sums are charged before the all-reduce and the
//     normalisation after it. Splitting the one charge, merging the two or
//     moving the sums past the all-reduce moves a literal by an ULP or more
//     at this shape (a one-member grid row's all-reduce is free, so there
//     only the merge shows).
func TestLayerNorm(t *testing.T) {
	const h, rows, steps = 16, 24, 5
	cases := []struct {
		layout parallel.Layout
		clock  float64
	}{
		{parallel.Layout{Family: "megatron", Ranks: 4}, 1.5384615384615387e-10},
		{parallel.Layout{Family: "seqpar", Ranks: 4}, 3.846153846153847e-11},
		{parallel.Layout{Family: "optimus", Q: 2}, 4.000771846153846e-05},
		{parallel.Layout{Family: "tesseract", Q: 1, D: 1}, 1.5384615384615385e-10},
		{parallel.Layout{Family: "tesseract", Q: 2, D: 1}, 4.000771846153846e-05},
		{parallel.Layout{Family: "tesseract", Q: 2, D: 2}, 4.000385923076922e-05},
	}
	rng := tensor.NewRNG(20)
	x, dy := tensor.RandomMatrix(rows, h, rng), tensor.RandomMatrix(rows, h, rng)
	ref := nn.NewLayerNorm(h)
	wantY := ref.Forward(x)
	wantDx := ref.Backward(dy)
	for _, c := range cases {
		t.Run(c.layout.String(), func(t *testing.T) {
			l, err := parallel.Validate(c.layout)
			if err != nil {
				t.Fatal(err)
			}
			ys, dxs := testutil.NewCollector(), testutil.NewCollector()
			clocks := testutil.NewScalars()
			testutil.Run(t, l.Ranks, func(w *dist.Worker) error {
				f, err := parallel.New(w, l)
				if err != nil {
					return err
				}
				ln := f.NewLayerNorm(h)
				if ln.Params() != nil || ln.State() != nil {
					return fmt.Errorf("layer norm must be parameter-free")
				}
				lx, ldy := f.Distribute(x), f.Distribute(dy)
				var y, dx *tensor.Matrix
				for range steps {
					y = ln.Forward(lx)
					dx = ln.Backward(ldy)
				}
				clocks.Put(w.Rank(), w.Clock())
				ys.Put(w.Rank(), f.Collect(y))
				dxs.Put(w.Rank(), f.Collect(dx))
				return rowInvariants(f, h, rows)
			})
			if l.Q <= 1 {
				if !ys.Get(0).Equal(wantY) || !dxs.Get(0).Equal(wantDx) {
					t.Errorf("whole columns must match nn.LayerNorm bit for bit: forward %g, backward %g",
						ys.Get(0).MaxAbsDiff(wantY), dxs.Get(0).MaxAbsDiff(wantDx))
				}
			}
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
			if got := clocks.Get(0); got != c.clock {
				t.Errorf("rank 0 clock %v, pinned %v", got, c.clock)
			}
		})
	}
}

// rowInvariants normalises five seeded [rows, h] inputs, and each again
// shifted by a per-row constant, on f's layout, and reports the first row
// whose sum is not zero within 1e-9, whose variance is not one within the
// eps-limited 10 %, or whose shifted output differs by more than 1e-6.
func rowInvariants(f parallel.Family, h, rows int) error {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := tensor.NewRNG(seed)
		x := tensor.RandomMatrix(rows, h, rng)
		shifted := tensor.AddColVector(x, tensor.RandomMatrix(rows, 1, rng))
		y := f.Collect(f.NewLayerNorm(h).Forward(f.Distribute(x)))
		ys := f.Collect(f.NewLayerNorm(h).Forward(f.Distribute(shifted)))
		if !y.AllClose(ys, 1e-6) {
			return fmt.Errorf("seed %d: a per-row shift moved the output by %g", seed, y.MaxAbsDiff(ys))
		}
		for i := 0; i < rows; i++ {
			var sum, sq float64
			for j := 0; j < h; j++ {
				v := y.At(i, j)
				sum += v
				sq += v * v
			}
			mean := sum / float64(h)
			variance := sq/float64(h) - mean*mean
			if sum > 1e-9 || sum < -1e-9 || variance < 0.9 || variance > 1.1 {
				return fmt.Errorf("seed %d row %d: sum %g, variance %g", seed, i, sum, variance)
			}
		}
	}
	return nil
}
