package parallel_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// parityLayouts lists every registered family's layouts with a mesh side of
// at most 3 or a 1-D size of at most 4, family by family, smallest first.
func parityLayouts(t testing.TB) []parallel.Layout {
	var out []parallel.Layout
	for _, name := range parallel.Families() {
		layouts, err := parallel.Layouts(name, 3*3*3)
		if err != nil {
			t.Fatal(err)
		}
		for l := range layouts {
			if l.Q <= 3 && (l.Q > 0 || l.Ranks <= 4) {
				out = append(out, l)
			}
		}
	}
	return out
}

// shardsOf is the layout's column-shard count: q on a mesh, p in 1-D.
func shardsOf(l parallel.Layout) int {
	if l.Q > 0 {
		return l.Q
	}
	return l.Ranks
}

// parityDims are the sizes one parity check runs at: the hidden width,
// heads, sequence length and activation rows of attention, the MLP and the
// block, and the linear's input and output widths.
type parityDims struct{ h, heads, seqLen, rows, in, out int }

// drawDims turns generated counts into sizes l splits: 1 to 4 heads per
// column shard, head width, sequence length and sequences per row shard,
// and linear widths of 1 to 12 per column shard.
func drawDims(l parallel.Layout, headsPerShard, headWidth, seqLen, seqsPerShard, in, out uint8) parityDims {
	shards := shardsOf(l)
	heads, s := shards*(int(headsPerShard)%4+1), int(seqLen)%4+1
	return parityDims{
		h: heads * (int(headWidth)%4 + 1), heads: heads, seqLen: s,
		rows: l.RowShards() * (int(seqsPerShard)%4 + 1) * s,
		in:   shards * (int(in)%12 + 1), out: shards * (int(out)%12 + 1),
	}
}

// FuzzBlockParity runs checkParity on a generated layout of parityLayouts
// at generated dims. The seeds are the shapes the per-family tests this
// harness replaced ran at.
func FuzzBlockParity(f *testing.F) {
	layouts := parityLayouts(f)
	at := func(name string) uint8 {
		for i, l := range layouts {
			if l.String() == name {
				return uint8(i)
			}
		}
		f.Fatalf("no layout %q", name)
		return 0
	}
	// Each count below is the drawn size minus one.
	// h 8, 2 heads, sequences of 2, 8 rows, linear 8 → 12:
	f.Add(at("tesseract [1,1]"), uint8(1), uint8(3), uint8(1), uint8(3), uint8(7), uint8(11), uint64(1))
	f.Add(at("tesseract [2,2]"), uint8(0), uint8(3), uint8(1), uint8(1), uint8(3), uint8(5), uint64(2))
	f.Add(at("tesseract [2,2,2]"), uint8(0), uint8(3), uint8(1), uint8(0), uint8(3), uint8(5), uint64(3))
	f.Add(at("optimus [1,1]"), uint8(1), uint8(3), uint8(1), uint8(3), uint8(7), uint8(11), uint64(4))
	f.Add(at("optimus [2,2]"), uint8(0), uint8(3), uint8(1), uint8(1), uint8(3), uint8(5), uint64(5))
	// h 8, 4 heads, sequences of 2, 8 rows, linear 8 → 12:
	f.Add(at("megatron [1]"), uint8(3), uint8(1), uint8(1), uint8(3), uint8(7), uint8(11), uint64(6))
	f.Add(at("megatron [2]"), uint8(1), uint8(1), uint8(1), uint8(3), uint8(3), uint8(5), uint64(7))
	f.Add(at("megatron [4]"), uint8(0), uint8(1), uint8(1), uint8(3), uint8(1), uint8(2), uint64(8))
	f.Add(at("seqpar [1]"), uint8(3), uint8(1), uint8(1), uint8(3), uint8(7), uint8(11), uint64(9))
	f.Add(at("seqpar [2]"), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(5), uint64(10))
	f.Add(at("seqpar [4]"), uint8(0), uint8(1), uint8(1), uint8(0), uint8(1), uint8(2), uint64(11))
	// h 12, 3 heads, 36 rows, linear 12 → 12:
	f.Add(at("tesseract [3,3,3]"), uint8(0), uint8(3), uint8(0), uint8(3), uint8(3), uint8(3), uint64(12))
	f.Add(at("seqpar [3]"), uint8(0), uint8(3), uint8(3), uint8(2), uint8(3), uint8(3), uint64(13))
	f.Fuzz(func(t *testing.T, layout, headsPerShard, headWidth, seqLen, seqsPerShard, in, out uint8, seed uint64) {
		l := layouts[int(layout)%len(layouts)]
		checkParity(t, l, drawDims(l, headsPerShard, headWidth, seqLen, seqsPerShard, in, out), seed)
	})
}

// TestBlockParityEveryLayout runs checkParity on every layout parityLayouts
// lists, at two heads per column shard of width 2, sequences of 2, two per
// row shard, and a linear 2 → 3 per column shard.
func TestBlockParityEveryLayout(t *testing.T) {
	for i, l := range parityLayouts(t) {
		t.Run(l.String(), func(t *testing.T) {
			checkParity(t, l, drawDims(l, 1, 1, 1, 1, 1, 2), uint64(i+1))
		})
	}
}

// parityCase is one module checkParity runs: its nn twin, fed x and dy,
// and the tolerance the collected output and input gradient are held to.
type parityCase struct {
	name string
	ref  interface {
		Forward(*tensor.Matrix) *tensor.Matrix
		Backward(*tensor.Matrix) *tensor.Matrix
	}
	// linears are the twin's linears in the order the distributed module's
	// State lists their weight and bias slots; a group of several is fused
	// side by side, as attention's [Wq | Wk | Wv].
	linears [][]*nn.Linear
	x, dy   *tensor.Matrix
	tol     float64

	y, dx         *tensor.Matrix   // the twin's output and input gradient
	params, grads []*tensor.Matrix // its slots' values and gradients
}

// slots reads part of every weight and bias slot of the twin.
func (pc *parityCase) slots(part func(*nn.Param) *tensor.Matrix) []*tensor.Matrix {
	var out []*tensor.Matrix
	for _, group := range pc.linears {
		ws, bs := make([]*tensor.Matrix, len(group)), make([]*tensor.Matrix, len(group))
		for i, nl := range group {
			ws[i], bs[i] = part(nl.W), part(nl.B)
		}
		out = append(out, tensor.HCat(ws...), tensor.HCat(bs...))
	}
	return out
}

// checkParity runs four modules forward and backward on every rank of
// layout l at dims d — the family's linear (GELU, bias), the shared
// attention and MLP built over the family's Linears, and the family's
// Transformer block — and holds each to its nn twin drawn from the same
// seed. Every weight shard is the serial draw, bit for bit; every bias
// is set from nn's, which are random, since a zero bias would hide a layer
// that drops it. The collected output and input gradient match to 1e-9 (the
// block's to 1e-8), and every landed gradient to 1e-9. Every parameter
// lands once per backward pass — a landing sums in place, so a second would
// sum a sum — the family's row shards are the layout's, and the step
// boundary leaves no buffer out.
func checkParity(t *testing.T, l parallel.Layout, d parityDims, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	x, dy := tensor.RandomMatrix(d.rows, d.h, rng), tensor.RandomMatrix(d.rows, d.h, rng)
	lin := nn.NewLinear(d.in, d.out, nn.ActGELU, true, tensor.NewRNG(seed+1))
	attn := nn.NewMultiHeadAttention(d.h, d.heads, d.seqLen, tensor.NewRNG(seed+2))
	mlp := nn.NewMLP(d.h, tensor.NewRNG(seed+3))
	blk := nn.NewBlock(d.h, d.heads, d.seqLen, tensor.NewRNG(seed+4))
	cases := []*parityCase{
		{name: "linear", ref: lin, linears: [][]*nn.Linear{{lin}}, tol: 1e-9,
			x: tensor.RandomMatrix(d.rows, d.in, rng), dy: tensor.RandomMatrix(d.rows, d.out, rng)},
		{name: "attention", ref: attn, linears: attentionLinears(attn), x: x, dy: dy, tol: 1e-9},
		{name: "MLP", ref: mlp, linears: [][]*nn.Linear{{mlp.Fc1}, {mlp.Fc2}}, x: x, dy: dy, tol: 1e-9},
		{name: "block", ref: blk, linears: append(attentionLinears(blk.Attn), []*nn.Linear{blk.Mlp.Fc1}, []*nn.Linear{blk.Mlp.Fc2}),
			x: x, dy: dy, tol: 1e-8},
	}
	for _, pc := range cases {
		for _, group := range pc.linears {
			for _, nl := range group {
				tensor.CopyInto(nl.B.Value, tensor.RandomMatrix(1, nl.B.Value.Cols, rng))
			}
		}
		pc.params = pc.slots(func(p *nn.Param) *tensor.Matrix { return p.Value })
		pc.y, pc.dx = pc.ref.Forward(pc.x), pc.ref.Backward(pc.dy)
		pc.grads = pc.slots(func(p *nn.Param) *tensor.Matrix { return p.Grad })
	}

	c := dist.New(dist.Config{WorldSize: l.Ranks})
	defer c.Close()
	err := c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		if f.RowShards() != l.RowShards() {
			return fmt.Errorf("the family splits rows %d ways, its layout %d", f.RowShards(), l.RowShards())
		}
		lins := f.(parallel.Linears)
		layers := []parallel.Layer{
			f.NewLinear(d.in, d.out, nn.ActGELU, true, tensor.NewRNG(seed+1)),
			parallel.NewAttention(lins, d.h, d.heads, d.seqLen, tensor.NewRNG(seed+2)),
			parallel.NewMLP(lins, d.h, tensor.NewRNG(seed+3)),
			f.NewBlock(d.h, d.heads, d.seqLen, tensor.NewRNG(seed+4)),
		}
		held := 0
		for i, m := range layers {
			pc := cases[i]
			held += len(m.Params())
			err := eachCut(m.State(), pc.params, func(slot int, p *nn.Param, li, lj int, want float64) error {
				if slot%2 == 1 { // State lists weight, bias, weight, bias…
					p.Value.Set(li, lj, want)
				} else if got := p.Value.At(li, lj); got != want {
					return fmt.Errorf("%s weight slot %d: drew %g, nn %g", pc.name, slot, got, want)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if err := closeTo(pc.name+" output", f.Collect(m.Forward(f.Distribute(pc.x))), pc.y, pc.tol); err != nil {
				return err
			}
			if err := closeTo(pc.name+" input gradient", f.Collect(m.Backward(f.Distribute(pc.dy))), pc.dx, pc.tol); err != nil {
				return err
			}
		}
		if landed, expected := parallel.GradsOf(f).Landed(); landed != held || expected != held {
			return fmt.Errorf("%d parameters landed, %d declared, the rank holds %d", landed, expected, held)
		}
		f.DrainGradients()
		for i, m := range layers {
			err := eachCut(m.State(), cases[i].grads, func(slot int, p *nn.Param, li, lj int, want float64) error {
				if got := p.Grad.At(li, lj); math.Abs(got-want) > 1e-9 {
					return fmt.Errorf("%s slot %d: landed %g, nn %g", cases[i].name, slot, got, want)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		f.EndStep()
		if live := w.Workspace().Stats().Live; live != 0 {
			return fmt.Errorf("%d buffers checked out after the step boundary", live)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s, %+v, seed %d: %v", l, d, seed, err)
	}
}

// closeTo is an error when got differs from want by more than tol.
func closeTo(name string, got, want *tensor.Matrix, tol float64) error {
	if !got.SameShape(want) {
		return fmt.Errorf("%s is %dx%d, nn's %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if diff := got.MaxAbsDiff(want); diff > tol {
		return fmt.Errorf("%s differs from nn's by %g", name, diff)
	}
	return nil
}

// eachCut calls fn on every element of every shard the rank holds, with the
// element of canon, the serial tensors in slot order, it stands for. A
// shard is read at the rectangle it was cut at, over its full height: a
// depth member's State names only the rows its optimiser steps, but its
// Value and Grad are the whole replica's.
func eachCut(states []parallel.State, canon []*tensor.Matrix, fn func(slot int, p *nn.Param, li, lj int, want float64) error) error {
	if len(states) != len(canon) {
		return fmt.Errorf("%d state slots, nn has %d parameters", len(states), len(canon))
	}
	for slot, st := range states {
		want := canon[slot]
		if st.Rows != want.Rows || st.Cols != want.Cols {
			return fmt.Errorf("slot %d is %dx%d, nn's %dx%d", slot, st.Rows, st.Cols, want.Rows, want.Cols)
		}
		if st.Param == nil {
			continue
		}
		for _, r := range st.Blocks {
			top := r.GlobalRow - r.LocalRow
			for i := range st.Param.Value.Rows {
				for j := range r.Cols {
					if err := fn(slot, st.Param, i, r.LocalCol+j, want.At(top+i, r.GlobalCol+j)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// TestEveryParameterLandsOnce runs two real steps of every layer a
// registered family builds — the patch embedding (NewLinear), a Transformer
// block and the classifier head — on the family's widest layout of at most 8
// ranks that the workload splits, and holds the parameters that landed in
// each backward pass to the ones the rank holds, each declared once as its
// layer was built; the drain starts the count afresh.
func TestEveryParameterLandsOnce(t *testing.T) {
	const in, h, heads, seqLen, batch, classes = 6, 16, 4, 2, 8, 3
	rows := batch * seqLen
	rng := tensor.NewRNG(7)
	x, feats := tensor.RandomMatrix(rows, in, rng), tensor.RandomMatrix(rows, h, rng)
	dz, dlogits := tensor.RandomMatrix(rows, h, rng), tensor.RandomMatrix(rows, classes, rng)
	for _, name := range parallel.Families() {
		layouts, err := parallel.Layouts(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		var l parallel.Layout
		for c := range layouts {
			if c.Ranks > l.Ranks && parallel.Fits(c, batch, seqLen, h, heads) {
				l = c
			}
		}
		c := dist.New(dist.Config{WorldSize: l.Ranks})
		err = c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			wrng := tensor.NewRNG(11)
			emb := f.NewLinear(in, h, nn.ActGELU, true, wrng)
			blk := f.NewBlock(h, heads, seqLen, wrng)
			head := f.NewHead(h, classes, wrng)
			held := len(emb.Params()) + len(blk.Params()) + len(head.Params())
			g := parallel.GradsOf(f)
			for step := 0; step < 2; step++ {
				blk.Forward(emb.Forward(f.Distribute(x)))
				head.Forward(feats)
				head.Backward(dlogits)
				emb.Backward(blk.Backward(f.Distribute(dz)))
				if landed, expected := g.Landed(); landed != held || expected != held {
					return fmt.Errorf("step %d: %d parameters landed, %d declared, the rank holds %d", step, landed, expected, held)
				}
				f.DrainGradients()
				if landed, _ := g.Landed(); landed != 0 {
					return fmt.Errorf("step %d: %d landings still counted after the drain", step, landed)
				}
				f.EndStep()
			}
			return nil
		})
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
	}
}

// attentionLinears lists nn attention's linears in State order.
func attentionLinears(a *nn.MultiHeadAttention) [][]*nn.Linear {
	return [][]*nn.Linear{{a.Wq, a.Wk, a.Wv}, {a.Wo}}
}
