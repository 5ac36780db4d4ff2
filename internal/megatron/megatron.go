// Package megatron implements 1-D tensor parallelism: Megatron-LM's scheme
// (Shoeybi et al., §2.5 and Figure 2 of the paper), the paper's first
// baseline, and sequence parallelism (Korthikanti et al.), which is the
// same weight sharding under a different activation bracket. Parameter
// matrices are split along one dimension across all p processors of the
// tensor-parallel group, and each Transformer sub-module — the shared
// parallel.Attention and parallel.MLP — runs over a column-parallel linear
// paired with a row-parallel linear (Family.NewLinearPair). What happens to
// the activation between modules is the group view's Bracket:
//
//   - Replicated (family "megatron"): every rank holds the full [b·s, h]
//     activation — the memory cost Eq. 9 charges Megatron-LM with — and
//     one all-reduce per module (two per layer and direction) restores it.
//   - RowSharded (family "seqpar", see package seqpar):
//     every rank holds b·s/p rows; an all-gather restores full rows in
//     front of each column-parallel GEMM and a reduce-scatter sums the
//     row-parallel partial products straight down to the local rows.
//     Gathered rows are transient and saved activations are recycled the
//     moment their last gradient GEMM has read them, which is where the
//     1/p activation footprint comes from.
//
// One local linear, parallel.Dense, runs under both of this package's
// linears, the patch embedding and every family's head: ColLinear and
// RowLinear are the collectives around its GEMM. The bracket is read at four
// seams — ColLinear.Forward/Backward and RowLinear.Forward/Backward — plus
// NewFamily, which splits the activation rows over the group under
// RowSharded, and Family.NewLinear, which sums the patch embedding's
// gradients over that group. Replicated, ColLinear.Forward and both
// backwards are the core's, plus the all-reduce of ColLinear's input
// gradient; RowLinear.Forward and the RowSharded backwards order their
// charges their own way and keep their own schedules. A further bracket
// (folded tensor+sequence parallelism, say) is one more case at those seams,
// not another set of layers or family type. When the shared modules'
// intermediates go back is no bracket's to say: under both, a buffer goes
// back at its last reader (parallel.Attention, parallel.MLP).
//
// Simulated clocks are float sums and bench/baseline.json pins them
// bit-exactly, so the order in which each bracket charges its GEMMs, bias
// sums and collectives is part of the contract: where the two brackets
// order the same work differently below, that is why.
package megatron

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Bracket says how activations are laid out between the parallel modules.
type Bracket int

const (
	// Replicated keeps the full activation on every rank.
	Replicated Bracket = iota
	// RowSharded keeps rows/p of the activation on every rank.
	RowSharded
)

// Proc is one processor's view of a 1-D tensor-parallel group, with the
// Grads its gradients land on (only the replicated patch embedding under
// RowSharded sums any: the linears' weight-shard gradients are rank-local).
type Proc struct {
	W *dist.Worker
	// P is the tensor-parallel size.
	P int
	// Rank is the index within the group, equal to the position of the
	// worker in the group's rank list.
	Rank int
	// TP is the tensor-parallel communicator.
	TP *dist.Group
	parallel.Grads

	// bracket is the activation layout between modules, set by NewFamily;
	// the zero value is Megatron-LM's replication.
	bracket Bracket
}

// NewProc attaches the calling worker to the tensor-parallel group spanning
// cluster ranks [0, p).
func NewProc(w *dist.Worker, p int) *Proc {
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	g := w.Cluster().Group(ranks...)
	idx := g.Index(w.Rank())
	if idx < 0 {
		panic(fmt.Sprintf("megatron: rank %d outside tensor-parallel group [0,%d)", w.Rank(), p))
	}
	return &Proc{W: w, P: p, Rank: idx, TP: g, Grads: parallel.NewGrads(w)}
}

// Gather all-gathers a row-sharded activation into a pooled full-row
// buffer: member blocks concatenate in group order, which is the global
// row order. The caller owns the result and Puts it as soon as its last
// reader has run.
func (p *Proc) Gather(x *tensor.Matrix) *tensor.Matrix {
	full := p.W.Workspace().GetUninitMatch(p.P*x.Rows, x.Cols, x.Phantom())
	return p.TP.AllGatherInto(p.W, x, full)
}

// accumTN computes xᵀ·dy into param's gradient and lands it: a weight
// shard is rank-local, so nothing sums it.
func (p *Proc) accumTN(param *nn.Param, x, dy *tensor.Matrix) {
	param.Grad.Zero() // the TN kernel accumulates; the gradient starts fresh
	compute.MatMulTNInto(p.W, param.Grad, x, dy)
	p.Land(nil, param)
}

// accumColSums is accumTN for the bias param's column sums, if any.
func (p *Proc) accumColSums(param *nn.Param, dy *tensor.Matrix) {
	if param == nil {
		return
	}
	compute.ColSumsInto(p.W, param.Grad, dy)
	p.Land(nil, param)
}

// ColLinear is a column-parallel linear layer: W is split [In, Out/p] and
// the full-row input multiplies the local shard (Figure 2, left path), in
// the parallel.Dense core. Replicated, the input already is full rows and
// the backward pass is the core's plus an all-reduce of the input gradient.
// RowSharded, Forward gathers the rows (and discards them after the GEMM —
// Backward re-gathers) and Backward reduce-scatters the input gradient
// behind the weight-gradient GEMM.
type ColLinear struct {
	parallel.Dense // W [In, Out/p], B [1, Out/p]; X is the local rows

	p *Proc
}

// NewColLinear draws only the local column block of the Xavier weight
// nn.NewLinear would draw from rng (rng moves past the whole weight); a nil
// rng builds the shape-only layer of a timing run.
func NewColLinear(p *Proc, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *ColLinear {
	return newCol(p, parallel.Draw(in, out, rng), act, bias)
}

func newCol(p *Proc, full parallel.Weight, act nn.Activation, bias bool) *ColLinear {
	in, out := full.Rows, full.Cols
	if out%p.P != 0 {
		panic(fmt.Sprintf("megatron: output %d not divisible by p=%d", out, p.P))
	}
	bc := out / p.P
	var b parallel.Shard
	if bias {
		b = full.Bias("megatron.col.b", p.Rank*bc, bc)
	}
	w := full.Param("megatron.col.w", 0, p.Rank*bc, in, bc)
	return &ColLinear{Dense: parallel.NewDense(p.W, nil, &p.Grads, w, b, act), p: p}
}

// Forward is the core's forward on the full-row input, gathered first when
// RowSharded. The result is a workspace buffer; the GELU pre-activation is
// retained for Backward.
func (l *ColLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	p := l.p
	if p.bracket != RowSharded {
		return l.Dense.Forward(x)
	}
	in := p.Gather(x)
	out := l.Dense.Forward(in)
	p.W.Workspace().Put(in)
	l.X = x
	return out
}

// activation recomputes the GELU output from the saved pre-activation —
// one element-wise pass, bitwise identical to the fused forward epilogue —
// into a workspace buffer owned by the caller.
func (l *ColLinear) activation() *tensor.Matrix {
	p := l.p
	act := p.W.Workspace().GetUninitMatch(l.Pre.Rows, l.Pre.Cols, l.Pre.Phantom())
	compute.GELUTo(p.W, act, l.Pre)
	return act
}

// Backward accumulates the shard gradients and returns the input gradient,
// a workspace buffer owned by the caller: all-reduced in place when
// Replicated, reduce-scattered to the local rows when RowSharded. In the
// RowSharded regime dy belongs to the layer for the duration of the call —
// the GELU gradient overwrites it in place — and the saved pre-activation
// is recycled as soon as that pass has read it.
func (l *ColLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	p := l.p
	if p.bracket != RowSharded {
		dx := l.Dense.Backward(dy)
		return p.TP.AllReduceInto(p.W, dx, dx)
	}
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	gelu := l.Act == nn.ActGELU
	if gelu {
		compute.GELUGradHadamardTo(p.W, dy, l.Pre, dy)
		ws.Put(l.Pre)
		l.Pre = nil
		p.accumColSums(l.B.Param, dy) // rides the element-wise sweep
	}
	dxFull := ws.GetUninitMatch(dy.Rows, l.W.Value.Rows, ph)
	compute.MatMulNTInto(p.W, dxFull, dy, l.W.Value)
	dx := ws.GetUninitMatch(dy.Rows/p.P, l.W.Value.Rows, ph)
	rs := p.TP.IReduceScatterInto(p.W, dxFull, dx)
	x := p.Gather(l.X)
	p.accumTN(l.W.Param, x, dy)
	ws.Put(x)
	if !gelu {
		p.accumColSums(l.B.Param, dy)
	}
	rs.Wait()
	ws.Put(dxFull)
	return dx
}

// RowLinear is a row-parallel linear layer: W is split [In/p, Out] and the
// column-sharded full-row input yields a partial product on every rank
// (Figure 2, right path). Replicated, Forward all-reduces the partials in
// place and Backward is the parallel.Dense core's, with no communication
// because the output gradient is replicated. RowSharded, Forward
// reduce-scatters the partials to the local rows and Backward gathers the
// row-sharded output gradient. Forward adds the bias to the sum, not to
// each partial, so it runs its own schedule over the core.
type RowLinear struct {
	parallel.Dense // W [In/p, Out], B [1, Out] replicated (identical update on all ranks)

	// src, when set, is the GELU column layer whose output is this layer's
	// input (the MLP pair). RowSharded, that input is transient: recycled
	// once the forward GEMM has read it and recomputed from src's saved
	// pre-activation for the weight gradient.
	src *ColLinear

	p *Proc
}

// NewRowLinear draws only the local row block of the Xavier weight from rng
// (rng moves past the whole weight); a nil rng builds the shape-only layer.
func NewRowLinear(p *Proc, in, out int, bias bool, rng *tensor.RNG) *RowLinear {
	return newRow(p, parallel.Draw(in, out, rng), bias)
}

func newRow(p *Proc, full parallel.Weight, bias bool) *RowLinear {
	in, out := full.Rows, full.Cols
	if in%p.P != 0 {
		panic(fmt.Sprintf("megatron: input %d not divisible by p=%d", in, p.P))
	}
	br := in / p.P
	var b parallel.Shard
	if bias {
		b = full.Bias("megatron.row.b", 0, out)
	}
	w := full.Param("megatron.row.w", p.Rank*br, 0, br, out)
	return &RowLinear{Dense: parallel.NewDense(p.W, nil, &p.Grads, w, b, nn.ActNone), p: p}
}

// Forward multiplies the column-sharded input by the local row shard,
// sums the partial products across the group — in place, or down to the
// local rows — and adds the bias to the sum. The output is a workspace
// buffer.
func (l *RowLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	p := l.p
	l.X = x
	ws := p.W.Workspace()
	ph := x.Phantom() || l.W.Value.Phantom()
	y := ws.GetUninitMatch(x.Rows, l.W.Value.Cols, ph)
	y.Zero()
	compute.MatMulInto(p.W, y, x, l.W.Value)
	if p.bracket == RowSharded {
		if l.src != nil {
			ws.Put(x)
			l.X = nil
		}
		partial := y
		y = ws.GetUninitMatch(x.Rows/p.P, l.W.Value.Cols, ph)
		p.TP.ReduceScatterInto(p.W, partial, y)
		ws.Put(partial)
	} else {
		p.TP.AllReduceInto(p.W, y, y)
	}
	if l.B.Param != nil {
		compute.AddRowVectorInPlace(p.W, y, l.B.Value)
	}
	return y
}

// Backward accumulates the shard gradients and returns the column-sharded
// full-row input gradient out of pooled buffers. RowSharded, the gathered
// output gradient is transient, the bias sums run over the full rows (so
// they are identical on all ranks) and the saved input is recycled once
// the weight gradient has read it.
func (l *RowLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	p := l.p
	if p.bracket != RowSharded {
		return l.Dense.Backward(dy)
	}
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	dy = p.Gather(dy)
	p.accumColSums(l.B.Param, dy)
	x := l.X
	if x == nil {
		x = l.src.activation()
	}
	p.accumTN(l.W.Param, x, dy)
	ws.Put(x)
	l.X = nil
	dx := ws.GetUninitMatch(dy.Rows, l.W.Value.Rows, ph)
	compute.MatMulNTInto(p.W, dx, dy, l.W.Value)
	ws.Put(dy)
	return dx
}
