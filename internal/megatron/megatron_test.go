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
// the bracket's activation layout, and registered under the family name a
// layout of the bracket carries.
var brackets = []struct {
	name, family string
	b            Bracket
}{
	{"replicated", "megatron", Replicated},
	{"sharded", "seqpar", RowSharded},
}

// Package seqpar registers the RowSharded bracket as "seqpar", and imports
// this package, so this package's tests register it under that name
// themselves: the parity harness builds a family by its layout.
func init() {
	parallel.Register(parallel.Spec{
		Name: "seqpar",
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			return NewFamily(w, l, RowSharded), nil
		},
		Arrangement: parallel.Rows,
	})
}

// eachBracket runs fn as a subtest per bracket and group size.
func eachBracket(t *testing.T, sizes []int, fn func(t *testing.T, b Bracket, tp int)) {
	for _, br := range brackets {
		for _, tp := range sizes {
			t.Run(fmt.Sprintf("%s/p%d", br.name, tp), func(t *testing.T) { fn(t, br.b, tp) })
		}
	}
}

// bracketParity runs the parity harness under both brackets at p = 1, 2
// and 4, a subtest each.
func bracketParity(t *testing.T, p testutil.Parity) {
	for _, br := range brackets {
		for _, tp := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/p%d", br.name, tp), func(t *testing.T) {
				p.Check(t, parallel.Layout{Family: br.family, Ranks: tp})
			})
		}
	}
}

// runTP runs fn with every rank's family on a tp-rank group under bracket
// b, built as the registrations build it: RowSharded splits rows tp ways.
func runTP(t *testing.T, tp int, b Bracket, fn func(f *Family) error) *dist.Cluster {
	t.Helper()
	return testutil.Run(t, tp, func(w *dist.Worker) error {
		f := NewFamily(w, parallel.Layout{Family: "megatron", Ranks: tp}, b)
		if b == RowSharded && f.RowShards() != tp {
			return fmt.Errorf("a %d-rank RowSharded family splits rows %d ways", tp, f.RowShards())
		}
		return fn(f)
	})
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
		runTP(t, tp, b, func(f *Family) error {
			mp := f.p
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
		runTP(t, tp, b, func(f *Family) error {
			mp := f.p
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

// blockDims are the sizes the attention, MLP and block pins run at: four
// sequences of two tokens, 8 wide, four heads.
var blockDims = testutil.Dims{H: 8, Heads: 4, SeqLen: 2, Rows: 8}

func TestMLPMatchesSerial(t *testing.T) {
	bracketParity(t, testutil.Parity{Modules: testutil.MLP, Dims: blockDims, Seed: 13})
}

func TestAttentionMatchesSerial(t *testing.T) {
	bracketParity(t, testutil.Parity{Modules: testutil.Attention, Dims: blockDims, Seed: 17})
}

func TestBlockMatchesSerial(t *testing.T) {
	bracketParity(t, testutil.Parity{Modules: testutil.Block, Dims: blockDims, Seed: 19})
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
				runTP(t, tp, br.b, func(f *Family) error {
					mp := f.p
					blk := f.NewBlock(h, heads, seqLen, tensor.NewRNG(19))
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
			c := runTP(t, tp, br.b, func(f *Family) error {
				b := f.NewBlockPhantom(h, heads, seqLen)
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

// TestPhantomMatchesRealClock: the parity harness replays the block
// shape-only on phantoms under each bracket and holds its clocks and
// traffic to the real run's.
func TestPhantomMatchesRealClock(t *testing.T) {
	for _, br := range brackets {
		t.Run(br.name, func(t *testing.T) {
			testutil.Parity{Modules: testutil.Block, Dims: blockDims, Seed: 23}.Check(t, parallel.Layout{Family: br.family, Ranks: 4})
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
