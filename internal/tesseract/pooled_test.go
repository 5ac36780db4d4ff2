package tesseract

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// errorfRank wraps a formatted error with the failing rank, surfacing it
// through the cluster's abort machinery.
func errorfRank(w *dist.Worker, format string, args ...any) error {
	return fmt.Errorf("rank %d: %s", w.Rank(), fmt.Sprintf(format, args...))
}

// blockStepSnapshot is one rank's observable state after a forward+backward:
// the local output block, the local input gradient block, and every local
// parameter gradient shard, all deep-copied so recycling cannot disturb them.
type blockStepSnapshot struct {
	out, dx *tensor.Matrix
	grads   []*tensor.Matrix
}

// runBlockSteps executes `steps` full Block forward+backward cycles on a
// [q, q, d] mesh with pooling on or off and returns per-rank, per-step
// snapshots. Inputs and output gradients vary per step so buffer reuse with
// stale contents cannot go unnoticed.
func runBlockSteps(t *testing.T, q, d, steps int, pooling bool) [][]blockStepSnapshot {
	t.Helper()
	const h, heads, seqLen, rows = 8, 4, 2, 8
	world := q * q * d
	snaps := make([][]blockStepSnapshot, world)
	rng := tensor.NewRNG(17)
	xs := make([]*tensor.Matrix, steps)
	dys := make([]*tensor.Matrix, steps)
	for i := range xs {
		xs[i] = tensor.RandomMatrix(rows, h, rng)
		dys[i] = tensor.RandomMatrix(rows, h, rng)
	}
	testutil.Run(t, world, func(w *dist.Worker) error {
		w.Workspace().SetPooling(pooling)
		f := meshFamily(w, q, d)
		p := f.p
		b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(23))
		params := b.Params()
		mine := make([]blockStepSnapshot, 0, steps)
		for i := 0; i < steps; i++ {
			for _, pa := range params {
				pa.ZeroGrad()
			}
			out := b.Forward(f.Distribute(xs[i]))
			dx := b.Backward(f.Distribute(dys[i]))
			p.DrainGradients()
			s := blockStepSnapshot{out: out.Clone(), dx: dx.Clone()}
			for _, pa := range params {
				s.grads = append(s.grads, pa.Grad.Clone())
			}
			mine = append(mine, s)
			w.Workspace().ReleaseAll()
		}
		snaps[w.Rank()] = mine
		return nil
	})
	return snaps
}

// TestPooledBlockBitwiseEqualsAllocating is the workspace subsystem's
// central property: with recycling on, a full Tesseract Transformer block
// forward+backward must produce bit-identical outputs, input gradients and
// parameter gradients to the plain allocating path, on every rank, across
// repeated steps (so reused buffers are actually exercised), for the 2-D,
// 2.5-D and serial mesh shapes.
func TestPooledBlockBitwiseEqualsAllocating(t *testing.T) {
	// [4,4,1] exercises reduce trees with interior nodes (group size 4),
	// which the [2,2,·] meshes never hit.
	for _, sh := range []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}, {4, 1}} {
		const steps = 3
		pooled := runBlockSteps(t, sh.q, sh.d, steps, true)
		plain := runBlockSteps(t, sh.q, sh.d, steps, false)
		for r := range pooled {
			for i := 0; i < steps; i++ {
				pp, pl := pooled[r][i], plain[r][i]
				if !pp.out.Equal(pl.out) {
					t.Fatalf("[%d,%d,%d] rank %d step %d: pooled forward output differs bitwise", sh.q, sh.q, sh.d, r, i)
				}
				if !pp.dx.Equal(pl.dx) {
					t.Fatalf("[%d,%d,%d] rank %d step %d: pooled input gradient differs bitwise", sh.q, sh.q, sh.d, r, i)
				}
				for gi := range pp.grads {
					if !pp.grads[gi].Equal(pl.grads[gi]) {
						t.Fatalf("[%d,%d,%d] rank %d step %d: parameter gradient %d differs bitwise", sh.q, sh.q, sh.d, r, i, gi)
					}
				}
			}
		}
	}
}

// TestPooledBlockWorkspaceIsLeakFree drives repeated steps and asserts the
// pool reaches a fixed point: after the first step has populated the free
// lists, further steps neither allocate nor raise the high-water mark.
func TestPooledBlockWorkspaceIsLeakFree(t *testing.T) {
	const q, d, steps = 2, 2, 5
	const h, heads, seqLen, rows = 8, 2, 2, 8
	world := q * q * d
	rng := tensor.NewRNG(31)
	x := tensor.RandomMatrix(rows, h, rng)
	dy := tensor.RandomMatrix(rows, h, rng)
	testutil.Run(t, world, func(w *dist.Worker) error {
		f := meshFamily(w, q, d)
		p := f.p
		b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(23))
		params := b.Params()
		var after1 tensor.WorkspaceStats
		for i := 0; i < steps; i++ {
			for _, pa := range params {
				pa.ZeroGrad()
			}
			b.Forward(f.Distribute(x))
			b.Backward(f.Distribute(dy))
			p.DrainGradients()
			w.Workspace().ReleaseAll()
			s := w.Workspace().Stats()
			if i == 0 {
				after1 = s
				continue
			}
			if s.Allocs != after1.Allocs {
				return errorfRank(w, "step %d allocated: %d pool misses vs %d after warm-up", i, s.Allocs, after1.Allocs)
			}
			if s.HighWater != after1.HighWater {
				return errorfRank(w, "step %d raised the high-water mark: %d vs %d", i, s.HighWater, after1.HighWater)
			}
			if s.Live != 0 {
				return errorfRank(w, "step %d leaked %d live buffers past ReleaseAll", i, s.Live)
			}
		}
		return nil
	})
}
