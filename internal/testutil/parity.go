package testutil

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Module is a set of the modules a parity check runs.
type Module uint8

const (
	Linear    Module = 1 << iota // the family's NewLinear (GELU, bias)
	Attention                    // parallel.NewAttention over the family's Linears
	MLP                          // parallel.NewMLP over the family's Linears
	Block                        // the family's NewBlock
)

// Dims are the sizes a parity check runs at: the hidden width, heads,
// sequence length and activation rows of attention, the MLP and the block,
// and the linear's input and output widths.
type Dims struct{ H, Heads, SeqLen, Rows, In, Out int }

// ParityLayouts lists every registered family's layouts with a mesh side of
// at most 3 or a 1-D size of at most 4, family by family, smallest first:
// the families the test binary imports.
func ParityLayouts(t testing.TB) []parallel.Layout {
	t.Helper()
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

// DrawDims turns generated counts into sizes l splits: 1 to 4 heads per
// column shard, head width, sequence length and sequences per row shard,
// and linear widths of 1 to 12 per column shard.
func DrawDims(l parallel.Layout, headsPerShard, headWidth, seqLen, seqsPerShard, in, out uint8) Dims {
	shards := l.Ranks
	if l.Q > 0 {
		shards = l.Q
	}
	heads, s := shards*(int(headsPerShard)%4+1), int(seqLen)%4+1
	return Dims{
		H: heads * (int(headWidth)%4 + 1), Heads: heads, SeqLen: s,
		Rows: l.RowShards() * (int(seqsPerShard)%4 + 1) * s,
		In:   shards * (int(in)%12 + 1), Out: shards * (int(out)%12 + 1),
	}
}

// Parity is the one check every family's parity tests call: a family's
// modules against their nn twins drawn from the same seed.
type Parity struct {
	Modules Module // zero runs all four
	Dims    Dims
	Seed    uint64
	// Landed, if set, runs on every rank after the backward passes and
	// before the drain, with the family and the number of parameters the
	// rank's modules hold.
	Landed func(f parallel.Family, held int) error
}

// Check runs each module forward and backward on every rank of l and holds
// it to its nn twin. Every weight shard is the serial draw, bit for bit;
// every bias is set from nn's, which are random, since a zero bias would
// hide a layer that drops it. The collected output and input gradient match
// to 1e-9 (the block's to 1e-8), and every gradient landed at a State
// rectangle to 1e-9 after the drain. The family's row shards are the
// layout's, and the step boundary leaves no buffer out. A second cluster
// replays the same calls on shape-only modules (a nil rng) fed phantoms,
// and every rank's clock and its Stats must be the real run's exactly.
func (p Parity) Check(t testing.TB, l parallel.Layout) {
	t.Helper()
	l, err := parallel.Validate(l)
	if err == nil {
		err = p.check(l)
	}
	if err != nil {
		t.Fatalf("%s, %+v, seed %d: %v", l, p.Dims, p.Seed, err)
	}
}

// twin is an nn module's forward and backward.
type twin interface {
	Forward(*tensor.Matrix) *tensor.Matrix
	Backward(*tensor.Matrix) *tensor.Matrix
}

// parityCase is one module Check runs: its nn twin, fed x and dy, and the
// tolerance the collected output and input gradient are held to.
type parityCase struct {
	module Module
	name   string
	seed   uint64 // the twins' weight stream
	ref    twin
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

// cases builds the twins of the selected modules, from the seed plus 1 for
// the linear, 2 for attention, 3 for the MLP and 4 for the block, with
// random biases, and runs each one's forward and backward.
func (p Parity) cases() []*parityCase {
	d, rng := p.Dims, tensor.NewRNG(p.Seed)
	var cases []*parityCase
	add := func(m Module, name string, off uint64, tol float64, in, out int, ref func(*tensor.RNG) (twin, [][]*nn.Linear)) {
		if p.Modules != 0 && p.Modules&m == 0 {
			return
		}
		pc := &parityCase{module: m, name: name, seed: p.Seed + off, tol: tol,
			x: tensor.RandomMatrix(d.Rows, in, rng), dy: tensor.RandomMatrix(d.Rows, out, rng)}
		pc.ref, pc.linears = ref(tensor.NewRNG(pc.seed))
		cases = append(cases, pc)
	}
	add(Linear, "linear", 1, 1e-9, d.In, d.Out, func(r *tensor.RNG) (twin, [][]*nn.Linear) {
		l := nn.NewLinear(d.In, d.Out, nn.ActGELU, true, r)
		return l, [][]*nn.Linear{{l}}
	})
	add(Attention, "attention", 2, 1e-9, d.H, d.H, func(r *tensor.RNG) (twin, [][]*nn.Linear) {
		a := nn.NewMultiHeadAttention(d.H, d.Heads, d.SeqLen, r)
		return a, attentionLinears(a)
	})
	add(MLP, "MLP", 3, 1e-9, d.H, d.H, func(r *tensor.RNG) (twin, [][]*nn.Linear) {
		m := nn.NewMLP(d.H, r)
		return m, [][]*nn.Linear{{m.Fc1}, {m.Fc2}}
	})
	add(Block, "block", 4, 1e-8, d.H, d.H, func(r *tensor.RNG) (twin, [][]*nn.Linear) {
		b := nn.NewBlock(d.H, d.Heads, d.SeqLen, r)
		return b, append(attentionLinears(b.Attn), []*nn.Linear{b.Mlp.Fc1}, []*nn.Linear{b.Mlp.Fc2})
	})
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
	return cases
}

// build makes pc's distributed twin on f from rng, or from its shape alone
// with a nil rng.
func (pc *parityCase) build(f parallel.Family, d Dims, rng *tensor.RNG) parallel.Layer {
	switch pc.module {
	case Linear:
		return f.NewLinear(d.In, d.Out, nn.ActGELU, true, rng)
	case Attention:
		return parallel.NewAttention(f.(parallel.Linears), d.H, d.Heads, d.SeqLen, rng)
	case MLP:
		return parallel.NewMLP(f.(parallel.Linears), d.H, rng)
	}
	return f.NewBlock(d.H, d.Heads, d.SeqLen, rng)
}

// check runs the real cluster and its phantom replay on l.
func (p Parity) check(l parallel.Layout) error {
	cases := p.cases()
	real, realClocks, err := p.run(l, cases, false)
	if err != nil {
		return err
	}
	ph, phClocks, err := p.run(l, cases, true)
	if err != nil {
		return fmt.Errorf("phantom replay: %w", err)
	}
	for r, want := range realClocks {
		if got := phClocks[r]; got != want {
			return fmt.Errorf("rank %d: phantom clock %v, real %v", r, got, want)
		}
	}
	if got, want := ph.Stats(), real.Stats(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("phantom traffic %+v, real %+v", got, want)
	}
	return nil
}

// run builds the cases' modules on every rank of a fresh cluster and runs
// them — real ones against their twins, or, in the phantom replay,
// shape-only ones on phantoms — and returns the cluster and every rank's
// clock.
func (p Parity) run(l parallel.Layout, cases []*parityCase, phantom bool) (*dist.Cluster, []float64, error) {
	c := dist.New(dist.Config{WorldSize: l.Ranks})
	defer c.Close()
	clocks := make([]float64, l.Ranks)
	err := c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		if f.RowShards() != l.RowShards() {
			return fmt.Errorf("the family splits rows %d ways, its layout %d", f.RowShards(), l.RowShards())
		}
		layers := make([]parallel.Layer, len(cases))
		held := 0
		for i, pc := range cases {
			x, dy, rng := pc.x, pc.dy, tensor.NewRNG(pc.seed)
			if phantom {
				x, dy, rng = tensor.NewPhantom(x.Rows, x.Cols), tensor.NewPhantom(dy.Rows, dy.Cols), nil
			}
			m := pc.build(f, p.Dims, rng)
			layers[i] = m
			held += len(m.Params())
			if rng != nil {
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
			}
			y := f.Collect(m.Forward(f.Distribute(x)))
			dx := f.Collect(m.Backward(f.Distribute(dy)))
			if phantom {
				continue
			}
			for _, o := range []struct {
				what      string
				got, want *tensor.Matrix
			}{{"output", y, pc.y}, {"input gradient", dx, pc.dx}} {
				switch {
				case !o.got.SameShape(o.want):
					return fmt.Errorf("%s %s is %dx%d, nn's %dx%d", pc.name, o.what, o.got.Rows, o.got.Cols, o.want.Rows, o.want.Cols)
				case !(o.got.MaxAbsDiff(o.want) <= pc.tol):
					return fmt.Errorf("%s %s differs from nn's by %g", pc.name, o.what, o.got.MaxAbsDiff(o.want))
				}
			}
		}
		if p.Landed != nil && !phantom {
			if err := p.Landed(f, held); err != nil {
				return err
			}
		}
		f.DrainGradients()
		for i := 0; i < len(layers) && !phantom; i++ {
			err := eachCut(layers[i].State(), cases[i].grads, func(slot int, p *nn.Param, li, lj int, want float64) error {
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
		clocks[w.Rank()] = w.Clock()
		if live := w.Workspace().Stats().Live; live != 0 {
			return fmt.Errorf("%d buffers checked out after the step boundary", live)
		}
		return nil
	})
	return c, clocks, err
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

// attentionLinears lists nn attention's linears in State order.
func attentionLinears(a *nn.MultiHeadAttention) [][]*nn.Linear {
	return [][]*nn.Linear{{a.Wq, a.Wk, a.Wv}, {a.Wo}}
}
