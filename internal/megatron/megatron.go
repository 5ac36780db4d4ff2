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
//   - RowSharded (family "seqpar", see package seqpar for the adapter):
//     every rank holds b·s/p rows; an all-gather restores full rows in
//     front of each column-parallel GEMM and a reduce-scatter sums the
//     row-parallel partial products straight down to the local rows.
//     Gathered rows are transient and saved activations are recycled the
//     moment their last gradient GEMM has read them, which is where the
//     1/p activation footprint comes from.
//
// The bracket is read at four seams — ColLinear.Forward/Backward and
// RowLinear.Forward/Backward — plus Family.Lifetime, which tells the shared
// modules when their intermediates go back; a further bracket (folded
// tensor+sequence parallelism, say) is one more case at those seams, not
// another set of layers.
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

// Proc is one processor's view of a 1-D tensor-parallel group.
type Proc struct {
	W *dist.Worker
	// P is the tensor-parallel size.
	P int
	// Rank is the index within the group, equal to the position of the
	// worker in the group's rank list.
	Rank int
	// TP is the tensor-parallel communicator.
	TP *dist.Group

	// bracket is the activation layout between modules, set by NewFamily;
	// the zero value is Megatron-LM's replication.
	bracket Bracket
}

// NewProcAt attaches the calling worker to the tensor-parallel group
// spanning cluster ranks [base, base+p), so the group can sit anywhere on a
// cluster it shares with others.
func NewProcAt(w *dist.Worker, p, base int) *Proc {
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = base + i
	}
	g := w.Cluster().Group(ranks...)
	idx := g.Index(w.Rank())
	if idx < 0 {
		panic(fmt.Sprintf("megatron: rank %d outside tensor-parallel group [%d,%d)", w.Rank(), base, base+p))
	}
	return &Proc{W: w, P: p, Rank: idx, TP: g}
}

// Gather all-gathers a row-sharded activation into a pooled full-row
// buffer: member blocks concatenate in group order, which is the global
// row order. The caller owns the result and Puts it as soon as its last
// reader has run.
func (p *Proc) Gather(x *tensor.Matrix) *tensor.Matrix {
	full := p.W.Workspace().GetUninitMatch(p.P*x.Rows, x.Cols, x.Phantom())
	return p.TP.AllGatherInto(p.W, x, full)
}

// accumTN accumulates xᵀ·dy into param out of a pooled buffer.
func (p *Proc) accumTN(param *nn.Param, x, dy *tensor.Matrix, ph bool) {
	ws := p.W.Workspace()
	dw := ws.GetUninitMatch(param.Value.Rows, param.Value.Cols, ph)
	dw.Zero()
	compute.MatMulTNInto(p.W, dw, x, dy)
	param.AccumGrad(dw)
	ws.Put(dw)
}

// accumColSums accumulates dy's column sums into the bias param, if any.
func (p *Proc) accumColSums(param *nn.Param, dy *tensor.Matrix, ph bool) {
	if param == nil {
		return
	}
	ws := p.W.Workspace()
	db := ws.GetUninitMatch(1, dy.Cols, ph)
	compute.ColSumsInto(p.W, db, dy)
	param.AccumGrad(db)
	ws.Put(db)
}

// ColLinear is a column-parallel linear layer: W is split [In, Out/p] and
// the full-row input multiplies the local shard (Figure 2, left path).
// Replicated, the input already is full rows and the backward pass
// all-reduces the input gradient. RowSharded, Forward gathers the rows (and
// discards them after the GEMM — Backward re-gathers) and Backward
// reduce-scatters the input gradient behind the weight-gradient GEMM.
type ColLinear struct {
	In, Out int
	Act     nn.Activation
	W       *nn.Param // [In, Out/p]
	B       *nn.Param // [1, Out/p]

	p   *Proc
	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewColLinear draws the full Xavier weight from rng (same stream as
// nn.NewLinear) and keeps the local column block; a nil rng builds the
// shape-only layer of a timing run.
func NewColLinear(p *Proc, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *ColLinear {
	return newCol(p, parallel.Draw(in, out, rng), act, bias)
}

func newCol(p *Proc, full parallel.Weight, act nn.Activation, bias bool) *ColLinear {
	in, out := full.Rows, full.Cols
	if out%p.P != 0 {
		panic(fmt.Sprintf("megatron: output %d not divisible by p=%d", out, p.P))
	}
	bc := out / p.P
	l := &ColLinear{In: in, Out: out, Act: act, p: p}
	l.W = nn.NewParam("megatron.col.w", full.Block(0, p.Rank*bc, in, bc))
	if bias {
		l.B = nn.NewParam("megatron.col.b", full.Zeros(1, bc))
	}
	return l
}

// Params returns the local shards.
func (l *ColLinear) Params() []*nn.Param {
	if l.B == nil {
		return []*nn.Param{l.W}
	}
	return []*nn.Param{l.W, l.B}
}

// Forward multiplies the full-row input by the local column shard, with
// the bias add and optional GELU fused into the GEMM write-back. The
// result is a workspace buffer; the GELU pre-activation is retained for
// Backward.
func (l *ColLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	p := l.p
	l.x = x
	ws := p.W.Workspace()
	ph := x.Phantom() || l.W.Value.Phantom()
	in := x
	if p.bracket == RowSharded {
		in = p.Gather(x)
	}
	pre := ws.GetUninitMatch(in.Rows, l.W.Value.Cols, ph)
	pre.Zero()
	out := pre
	var bias *tensor.Matrix
	if l.B != nil {
		bias = l.B.Value
	}
	switch {
	case l.Act == nn.ActGELU:
		l.pre = pre
		out = ws.GetUninitMatch(in.Rows, l.W.Value.Cols, ph)
		compute.MatMulBiasGELUInto(p.W, out, pre, in, l.W.Value, bias)
	case bias != nil:
		compute.MatMulBiasInto(p.W, pre, in, l.W.Value, bias)
	default:
		compute.MatMulInto(p.W, pre, in, l.W.Value)
	}
	if in != x {
		ws.Put(in)
	}
	return out
}

// activation recomputes the GELU output from the saved pre-activation —
// one element-wise pass, bitwise identical to the fused forward epilogue —
// into a workspace buffer owned by the caller.
func (l *ColLinear) activation() *tensor.Matrix {
	p := l.p
	act := p.W.Workspace().GetUninitMatch(l.pre.Rows, l.pre.Cols, l.pre.Phantom())
	compute.GELUTo(p.W, act, l.pre)
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
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	sharded := p.bracket == RowSharded
	gelu := l.Act == nn.ActGELU
	var scratch *tensor.Matrix
	if gelu {
		g := dy
		if !sharded {
			scratch = ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
			g = scratch
		}
		compute.GELUGradHadamardTo(p.W, g, l.pre, dy)
		dy = g
	}
	if !sharded {
		p.accumTN(l.W, l.x, dy, ph)
		p.accumColSums(l.B, dy, ph)
		dx := ws.GetUninitMatch(dy.Rows, l.In, ph)
		compute.MatMulNTInto(p.W, dx, dy, l.W.Value)
		ws.Put(scratch)
		return p.TP.AllReduceInto(p.W, dx, dx)
	}
	if gelu {
		ws.Put(l.pre)
		l.pre = nil
		p.accumColSums(l.B, dy, ph) // rides the element-wise sweep
	}
	dxFull := ws.GetUninitMatch(dy.Rows, l.In, ph)
	compute.MatMulNTInto(p.W, dxFull, dy, l.W.Value)
	dx := ws.GetUninitMatch(dy.Rows/p.P, l.In, ph)
	rs := p.TP.IReduceScatterInto(p.W, dxFull, dx)
	x := p.Gather(l.x)
	p.accumTN(l.W, x, dy, ph)
	ws.Put(x)
	if !gelu {
		p.accumColSums(l.B, dy, ph)
	}
	rs.Wait()
	ws.Put(dxFull)
	return dx
}

// RowLinear is a row-parallel linear layer: W is split [In/p, Out] and the
// column-sharded full-row input yields a partial product on every rank
// (Figure 2, right path). Replicated, Forward all-reduces the partials in
// place and Backward needs no communication because the output gradient is
// replicated. RowSharded, Forward reduce-scatters the partials to the local
// rows and Backward gathers the row-sharded output gradient.
type RowLinear struct {
	In, Out int
	W       *nn.Param // [In/p, Out]
	B       *nn.Param // [1, Out], replicated (identical update on all ranks)

	// src, when set, is the GELU column layer whose output is this layer's
	// input (the MLP pair). RowSharded, that input is transient: recycled
	// once the forward GEMM has read it and recomputed from src's saved
	// pre-activation for the weight gradient.
	src *ColLinear

	p *Proc
	x *tensor.Matrix
}

// NewRowLinear draws the full Xavier weight from rng and keeps the local row
// block; a nil rng builds the shape-only layer.
func NewRowLinear(p *Proc, in, out int, bias bool, rng *tensor.RNG) *RowLinear {
	return newRow(p, parallel.Draw(in, out, rng), bias)
}

func newRow(p *Proc, full parallel.Weight, bias bool) *RowLinear {
	in, out := full.Rows, full.Cols
	if in%p.P != 0 {
		panic(fmt.Sprintf("megatron: input %d not divisible by p=%d", in, p.P))
	}
	br := in / p.P
	l := &RowLinear{In: in, Out: out, p: p}
	l.W = nn.NewParam("megatron.row.w", full.Block(p.Rank*br, 0, br, out))
	if bias {
		l.B = nn.NewParam("megatron.row.b", full.Zeros(1, out))
	}
	return l
}

// Params returns the local shards.
func (l *RowLinear) Params() []*nn.Param {
	if l.B == nil {
		return []*nn.Param{l.W}
	}
	return []*nn.Param{l.W, l.B}
}

// Forward multiplies the column-sharded input by the local row shard,
// sums the partial products across the group — in place, or down to the
// local rows — and adds the bias to the sum. The output is a workspace
// buffer.
func (l *RowLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	p := l.p
	l.x = x
	ws := p.W.Workspace()
	ph := x.Phantom() || l.W.Value.Phantom()
	y := ws.GetUninitMatch(x.Rows, l.Out, ph)
	y.Zero()
	compute.MatMulInto(p.W, y, x, l.W.Value)
	if p.bracket == RowSharded {
		if l.src != nil {
			ws.Put(x)
			l.x = nil
		}
		partial := y
		y = ws.GetUninitMatch(x.Rows/p.P, l.Out, ph)
		p.TP.ReduceScatterInto(p.W, partial, y)
		ws.Put(partial)
	} else {
		p.TP.AllReduceInto(p.W, y, y)
	}
	if l.B != nil {
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
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	sharded := p.bracket == RowSharded
	x := l.x
	if sharded {
		dy = p.Gather(dy)
		p.accumColSums(l.B, dy, ph)
		if x == nil {
			x = l.src.activation()
		}
	}
	p.accumTN(l.W, x, dy, ph)
	if sharded {
		ws.Put(x)
		l.x = nil
	} else {
		p.accumColSums(l.B, dy, ph)
	}
	dx := ws.GetUninitMatch(dy.Rows, l.W.Value.Rows, ph)
	compute.MatMulNTInto(p.W, dx, dy, l.W.Value)
	if sharded {
		ws.Put(dy)
	}
	return dx
}
