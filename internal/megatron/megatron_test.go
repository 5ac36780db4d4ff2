package megatron

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// Every test below runs once per bracket: the same layers, fed and read in
// the bracket's activation layout.
var brackets = []struct {
	name string
	b    Bracket
}{
	{"replicated", Replicated},
	{"sharded", RowSharded},
}

// eachBracket runs fn as a subtest per bracket and group size.
func eachBracket(t *testing.T, sizes []int, fn func(t *testing.T, b Bracket, tp int)) {
	for _, br := range brackets {
		for _, tp := range sizes {
			t.Run(fmt.Sprintf("%s/p%d", br.name, tp), func(t *testing.T) { fn(t, br.b, tp) })
		}
	}
}

// runTP runs fn on every rank of a tp-rank group under bracket b.
func runTP(t *testing.T, tp int, b Bracket, fn func(mp *Proc) error) *dist.Cluster {
	t.Helper()
	return testutil.Run(t, tp, func(w *dist.Worker) error {
		return fn(NewFamily(w, parallel.Layout{Family: "megatron", Ranks: tp}, b).p)
	})
}

// family wraps a group view for the block constructors, which read no
// activation layout.
func family(mp *Proc) *Family {
	l := parallel.Layout{Family: "megatron", Ranks: mp.P}
	f := &Family{p: mp}
	f.View = parallel.NewView(mp.W, l, nil, nil, &mp.Grads, f)
	return f
}

// pooled copies m into a workspace buffer: the row-sharded bracket recycles
// the activations it is handed, which only pooled buffers allow.
func pooled(mp *Proc, m *tensor.Matrix) *tensor.Matrix {
	out := mp.W.Workspace().GetUninit(m.Rows, m.Cols)
	tensor.CopyInto(out, m)
	return out
}

// local returns the bracket's share of a replicated activation: all of it,
// or this rank's row block.
func local(mp *Proc, m *tensor.Matrix) *tensor.Matrix {
	if mp.bracket == Replicated {
		return pooled(mp, m)
	}
	br := m.Rows / mp.P
	return pooled(mp, m.SubMatrix(mp.Rank*br, 0, br, m.Cols))
}

// global reassembles the replicated activation from the bracket's share.
func global(mp *Proc, m *tensor.Matrix) *tensor.Matrix {
	if mp.bracket == Replicated {
		return m
	}
	return mp.TP.AllGatherInto(mp.W, m, tensor.New(mp.P*m.Rows, m.Cols))
}

// colBlock returns this rank's column block of a full-row matrix, and
// hcat reassembles one from every rank's block.
func colBlock(mp *Proc, m *tensor.Matrix) *tensor.Matrix {
	bc := m.Cols / mp.P
	return pooled(mp, m.SubMatrix(0, mp.Rank*bc, m.Rows, bc))
}

func hcat(mp *Proc, m *tensor.Matrix) *tensor.Matrix {
	return mp.TP.AllGatherInto(mp.W, m, tensor.New(m.Rows, mp.P*m.Cols))
}

func TestColLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 8
	eachBracket(t, []int{1, 2, 4}, func(t *testing.T, b Bracket, tp int) {
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
		runTP(t, tp, b, func(mp *Proc) error {
			l := NewColLinear(mp, in, out, nn.ActGELU, true, tensor.NewRNG(9))
			y := l.Forward(local(mp, x))
			ys.Put(mp.W.Rank(), hcat(mp, y))
			dx := l.Backward(colBlock(mp, dy))
			dxs.Put(mp.W.Rank(), global(mp, dx))
			gws.Put(mp.W.Rank(), hcat(mp, l.W.Grad))
			gbs.Put(mp.W.Rank(), hcat(mp, l.B.Grad))
			return nil
		})
		for r := 0; r < tp; r++ {
			testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
			testutil.CheckClose(t, "dW", gws.Get(r), ref.W.Grad, 1e-9)
			testutil.CheckClose(t, "dB", gbs.Get(r), ref.B.Grad, 1e-9)
		}
	})
}

func TestRowLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 12, 8, 8
	eachBracket(t, []int{1, 2, 4}, func(t *testing.T, b Bracket, tp int) {
		dataRng := tensor.NewRNG(2)
		x := tensor.RandomMatrix(rows, in, dataRng)
		dy := tensor.RandomMatrix(rows, out, dataRng)

		ref := nn.NewLinear(in, out, nn.ActNone, true, tensor.NewRNG(11))
		wantY := ref.Forward(x)
		wantDx := ref.Backward(dy)

		ys := testutil.NewCollector()
		dxs := testutil.NewCollector()
		gbs := testutil.NewCollector()
		runTP(t, tp, b, func(mp *Proc) error {
			l := NewRowLinear(mp, in, out, true, tensor.NewRNG(11))
			y := l.Forward(colBlock(mp, x))
			ys.Put(mp.W.Rank(), global(mp, y))
			dx := l.Backward(local(mp, dy))
			dxs.Put(mp.W.Rank(), hcat(mp, dx))
			gbs.Put(mp.W.Rank(), l.B.Grad)
			return nil
		})
		for r := 0; r < tp; r++ {
			testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
			// The replicated bias sees the full-row sum on every rank.
			testutil.CheckClose(t, "dB", gbs.Get(r), ref.B.Grad, 1e-9)
		}
	})
}

// serialModule is the forward/backward shape of nn's reference modules.
type serialModule interface {
	Forward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix
}

// moduleMatchesSerial checks a [rows, h] → [rows, h] module built by build
// against the serial reference's output and input gradient.
func moduleMatchesSerial(t *testing.T, rows, h int, seed uint64, tol float64, ref serialModule,
	build func(mp *Proc) parallel.Layer) {
	dataRng := tensor.NewRNG(seed)
	x := tensor.RandomMatrix(rows, h, dataRng)
	dy := tensor.RandomMatrix(rows, h, dataRng)
	wantY := ref.Forward(x)
	wantDx := ref.Backward(dy)
	eachBracket(t, []int{1, 2, 4}, func(t *testing.T, b Bracket, tp int) {
		ys := testutil.NewCollector()
		dxs := testutil.NewCollector()
		runTP(t, tp, b, func(mp *Proc) error {
			m := build(mp)
			y := m.Forward(local(mp, x))
			ys.Put(mp.W.Rank(), global(mp, y))
			dx := m.Backward(local(mp, dy))
			dxs.Put(mp.W.Rank(), global(mp, dx))
			return nil
		})
		for r := 0; r < tp; r++ {
			testutil.CheckClose(t, "y", ys.Get(r), wantY, tol)
			testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, tol)
		}
	})
}

func TestMLPMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	moduleMatchesSerial(t, rows, h, 3, 1e-9, nn.NewMLP(h, tensor.NewRNG(13)), func(mp *Proc) parallel.Layer {
		return parallel.NewMLP(family(mp), h, tensor.NewRNG(13))
	})
}

func TestAttentionMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 2, 8
	moduleMatchesSerial(t, rows, h, 4, 1e-9, nn.NewMultiHeadAttention(h, heads, seqLen, tensor.NewRNG(17)), func(mp *Proc) parallel.Layer {
		return parallel.NewAttention(family(mp), h, heads, seqLen, tensor.NewRNG(17))
	})
}

func TestBlockMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 2, 8
	moduleMatchesSerial(t, rows, h, 5, 1e-8, nn.NewBlock(h, heads, seqLen, tensor.NewRNG(19)), func(mp *Proc) parallel.Layer {
		return family(mp).NewBlock(h, heads, seqLen, tensor.NewRNG(19))
	})
}

// TestBracketsBitIdentical is what lets one set of layers serve both
// families: from the same RNG the two brackets run the same arithmetic, so
// the collected output, the collected input gradient and every shard
// gradient on every rank agree to the last bit — only the collectives
// around the GEMMs, and how long gathered rows live, differ.
func TestBracketsBitIdentical(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 2, 8
	for _, tp := range []int{2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dataRng := tensor.NewRNG(5)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)
			// got[bracket][rank] = y, dx, then the block's shard gradients.
			var got [2][][]*tensor.Matrix
			for i, br := range brackets {
				got[i] = make([][]*tensor.Matrix, tp)
				runTP(t, tp, br.b, func(mp *Proc) error {
					blk := family(mp).NewBlock(h, heads, seqLen, tensor.NewRNG(19))
					y := global(mp, blk.Forward(local(mp, x))).Clone()
					dx := global(mp, blk.Backward(local(mp, dy))).Clone()
					out := []*tensor.Matrix{y, dx}
					for _, p := range blk.Params() {
						out = append(out, p.Grad)
					}
					got[i][mp.Rank] = out // one slot per rank: no two ranks share an element
					return nil
				})
			}
			for r := 0; r < tp; r++ {
				rep, sh := got[0][r], got[1][r]
				if len(rep) != 2+8 || len(sh) != len(rep) {
					t.Fatalf("rank %d: %d and %d tensors, want y, dx and 8 shard gradients", r, len(rep), len(sh))
				}
				for j := range rep {
					if !rep[j].Equal(sh[j]) {
						t.Errorf("rank %d tensor %d: brackets differ by %g", r, j, rep[j].MaxAbsDiff(sh[j]))
					}
				}
			}
		})
	}
}

func TestBlockCollectiveCount(t *testing.T) {
	// Replicated: §3.1 charges Megatron-LM with all-reduces of the
	// replicated activation, exactly 2 forward and 2 backward per layer.
	// RowSharded: each parallel linear pair is bracketed by one all-gather
	// in and one reduce-scatter out, 2+2 forward; backward gathers the
	// output gradient, reduce-scatters the input gradient and re-gathers
	// the discarded forward input per module, 4 gathers + 2 scatters; no
	// all-reduce of activations ever happens.
	const h, heads, seqLen, rows, tp = 8, 4, 2, 8, 4
	want := map[Bracket]map[string]int64{
		Replicated: {"allreduce": 4, "allgather": 0, "reducescatter": 0},
		RowSharded: {"allreduce": 0, "allgather": 6, "reducescatter": 4},
	}
	for _, br := range brackets {
		t.Run(br.name, func(t *testing.T) {
			c := runTP(t, tp, br.b, func(mp *Proc) error {
				b := family(mp).NewBlockPhantom(h, heads, seqLen)
				x := tensor.NewPhantom(rows, h)
				if br.b == RowSharded {
					x = tensor.NewPhantom(rows/tp, h)
				}
				b.Backward(b.Forward(x))
				return nil
			})
			stats := c.Stats()
			for op, n := range want[br.b] {
				if got := stats.PerOp[op].Calls; got != n {
					t.Errorf("block fwd+bwd performed %d %s calls, want %d", got, op, n)
				}
			}
		})
	}
}

func TestPhantomMatchesRealClock(t *testing.T) {
	const h, heads, seqLen, rows, tp = 8, 4, 2, 8, 4
	for _, br := range brackets {
		t.Run(br.name, func(t *testing.T) {
			local := rows
			if br.b == RowSharded {
				local = rows / tp
			}
			clock := func(phantom bool) float64 {
				c := runTP(t, tp, br.b, func(mp *Proc) error {
					var b parallel.Layer
					var x *tensor.Matrix
					if phantom {
						b = family(mp).NewBlockPhantom(h, heads, seqLen)
						x = tensor.NewPhantom(local, h)
					} else {
						b = family(mp).NewBlock(h, heads, seqLen, tensor.NewRNG(23))
						x = tensor.RandomMatrix(local, h, tensor.NewRNG(29))
					}
					b.Backward(b.Forward(x))
					return nil
				})
				return c.MaxClock()
			}
			real, ph := clock(false), clock(true)
			if real <= 0 {
				t.Fatal("expected nonzero simulated time")
			}
			// The phantom path charges attention flops as one lump sum, so
			// the clocks may differ in the last ulp from floating-point
			// association.
			if rel := (real - ph) / real; rel > 1e-12 || rel < -1e-12 {
				t.Fatalf("phantom clock %g != real clock %g", ph, real)
			}
		})
	}
}

func TestProcValidation(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 2})
	err := c.Run(func(w *dist.Worker) error {
		defer func() { recover() }()
		NewProc(w, 4) // group larger than the cluster
		t.Errorf("rank %d: expected panic", w.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
