package megatron

import (
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func init() {
	parallel.Register(parallel.Spec{
		Name: "megatron",
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			return NewFamily(w, l, Replicated), nil
		},
		Arrangement: parallel.Flat,
	})
}

// Family is the 1-D families' model layer: weights split across the
// tensor-parallel group, activations replicated on every rank (Replicated:
// the memory cost Eq. 9 charges Megatron-LM with) or split by rows over it
// (RowSharded). The Transformer block is the shared parallel.Block over this
// package's column/row linear pairs; its layer norms and residual adds are
// row-local, so they run on whatever rows the bracket leaves on the rank,
// and the View sums no row statistic. Per layer and direction the
// Replicated block performs exactly two all-reduces of the [b·s, h]
// activation — the volume 2β(p−1)·b·s·h/p §3.1 attributes to Megatron-LM;
// the RowSharded block moves the same bytes forward as two all-gathers plus
// two reduce-scatters, and half again backward for the re-gathers. The patch
// embedding is a whole-weight parallel.Dense, the core both linears run
// on. Package seqpar is this family
// registered under RowSharded.
type Family struct {
	parallel.View
	p *Proc
}

// NewFamily attaches the calling worker to the tensor-parallel group
// layout l names and returns the family view whose blocks run under
// bracket b.
func NewFamily(w *dist.Worker, l parallel.Layout, b Bracket) *Family {
	p := NewProc(w, l.Ranks)
	p.bracket = b
	var rows *dist.Group
	if b == RowSharded {
		rows = p.TP
	}
	f := &Family{p: p}
	f.View = parallel.NewView(w, l, rows, nil, &p.Grads, f)
	return f
}

// NewLinear builds the patch embedding, a parallel.Dense over the whole
// weight on the rows the bracket leaves on the rank: all of them, computed
// redundantly like the head, or RowSharded the local ones, whose gradients
// then sum over the group.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	var sum *dist.Group
	if f.p.bracket == RowSharded {
		sum = f.p.TP
	}
	return parallel.NewReplicatedDense(f.p.W, sum, &f.p.Grads, in, out, act, bias, rng)
}

// Shards returns p: weights split their columns, and attention its heads,
// over the whole group.
func (f *Family) Shards() int { return f.p.P }

// NewLinearPair shards a sub-module's two weights as a column-parallel
// linear feeding a row-parallel one, so the wide activation between them
// never leaves the rank. Behind a GELU the row layer knows its source:
// RowSharded, it recycles the GELU output after its forward GEMM and
// recomputes it from the column layer's saved pre-activation for the weight
// gradient, halving the MLP's retained activations.
func (f *Family) NewLinearPair(in, out parallel.Weight, act nn.Activation) (parallel.Layer, parallel.Layer) {
	col, row := newCol(f.p, in, act, true), newRow(f.p, out, true)
	if act == nn.ActGELU {
		row.src = col
	}
	return col, row
}
