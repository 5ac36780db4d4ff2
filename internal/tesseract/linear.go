package tesseract

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/summa"
	"repro/internal/tensor"
)

// Linear is a Tesseract-parallel fully connected layer. The weight is
// B-distributed ([In/q, Out/q] per processor, replicated across depth); the
// bias, following §3.2.2, lives on grid row 0 and is broadcast down each
// column in the forward pass, with gradients reduced back to row 0 in the
// backward pass. An optional GELU is fused, as in the Transformer MLP.
//
// The backward pass applies Eq. 3: dX = dY·Wᵀ via MulABT and dW = Xᵀ·dY via
// MulATB followed by the depth all-reduce of §3.1, so the d weight replicas
// stay bit-identical across training steps. The replicas share one
// optimiser: depth member k steps the k-th of d row bands of the weight
// block (parallel.Grads.Band), and the step boundary gathers the bands.
type Linear struct {
	In, Out int
	Act     nn.Activation

	W parallel.Shard // local [In/q, Out/q]
	B parallel.Shard // [1, Out/q] on grid row 0, no parameter elsewhere

	params [2]*nn.Param // Params' backing, refilled from W and B on each call

	hasBias bool // configuration flag, identical on every processor

	p   *Proc
	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewLinear draws only the local shard of the Xavier weight nn.NewLinear
// would draw from rng, moving rng past the whole weight as nn.NewLinear
// does; a nil rng builds the shape-only layer of a timing run. All
// processors must call it collectively with identically seeded RNGs.
func NewLinear(p *Proc, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *Linear {
	return newLinear(p, parallel.Draw(in, out, rng), act, bias)
}

// newLinear draws block (i, j) of a global weight (Figure 4b). The fused
// QKV projection passes a column-permuted one.
func newLinear(p *Proc, full parallel.Weight, act nn.Activation, bias bool) *Linear {
	q := p.Shape.Q
	if full.Rows%q != 0 || full.Cols%q != 0 {
		panic(fmt.Sprintf("tesseract: parameter %dx%d not divisible by q=%d", full.Rows, full.Cols, q))
	}
	br, bc := full.Rows/q, full.Cols/q
	l := &Linear{In: full.Rows, Out: full.Cols, Act: act, hasBias: bias, p: p}
	l.W = full.Param("tesseract.linear.w", p.I*br, p.J*bc, br, bc)
	p.Band(p.sum, l.W.Param)
	if bias && p.I == 0 {
		l.B = full.Bias("tesseract.linear.b", p.J*bc, bc)
	}
	p.Expect(p.sum, len(l.Params()))
	return l
}

// Params returns the parameter shards this processor owns. The slice is the
// layer's own: read it, do not write it.
func (l *Linear) Params() []*nn.Param {
	l.params = [2]*nn.Param{l.W.Param, l.B.Param}
	if l.B.Param == nil {
		return l.params[:1:1]
	}
	return l.params[:2:2]
}

// State is the weight's checkpoint slot and, with a bias, the bias's: the
// depth replica k = 0 writes both — every depth member its own band of a
// banded weight — and grid rows i != 0, which hold no bias, still emit its
// slot so the walk stays aligned across the mesh.
func (l *Linear) State() []parallel.State {
	primary := l.p.K == 0
	out := append(make([]parallel.State, 0, 2), l.W.State(primary))
	switch {
	case l.B.Param != nil:
		out = append(out, l.B.State(primary))
	case l.hasBias:
		out = append(out, parallel.State{Rows: 1, Cols: l.Out})
	}
	return out
}

// Forward computes the local output block for a local A-distributed input x.
// The bias is broadcast down the column first, then the SUMMA runs with the
// bias add and the optional GELU fused into its final iteration's
// write-back (summa.Epilogue) — one pass over the output instead of three,
// bitwise identical to the separate passes. The input, the pre-activation
// and the returned activation are retained for the backward pass, so they
// live until the step-boundary ReleaseAll; bias receive buffers are
// transient workspace scratch.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	p := l.p
	if x.Cols != l.In/p.Shape.Q {
		panic(fmt.Sprintf("tesseract: Linear forward block %dx%d through %d->%d on q=%d",
			x.Rows, x.Cols, l.In, l.Out, p.Shape.Q))
	}
	if l.W.Stale() {
		panic(fmt.Sprintf("tesseract: rank %d: Linear forward through a weight whose row band an optimiser stepped (or a restore installed) with no step boundary (EndStep) since: the other depth members' rows are stale",
			p.W.Rank()))
	}
	ws := p.W.Workspace()
	l.x = x
	outCols := l.Out / p.Shape.Q
	ph := x.Phantom() || l.W.Value.Phantom()
	var epi summa.Epilogue
	var biasScratch *tensor.Matrix
	if l.hasBias {
		if p.I == 0 {
			epi.Bias = p.Col.BroadcastInto(p.W, p.ColRank(0), l.B.Value, l.B.Value)
		} else {
			biasScratch = ws.GetUninitMatch(1, outCols, l.W.Value.Phantom())
			p.Col.BroadcastInto(p.W, p.ColRank(0), nil, biasScratch)
			epi.Bias = biasScratch
		}
	}
	if l.Act == nn.ActGELU {
		epi.Act = ws.GetUninitMatch(x.Rows, outCols, ph)
	}
	y := summa.MulABEpi(p.Proc, x, p.rightOperand(l.W.Value), epi)
	if biasScratch != nil {
		ws.Put(biasScratch)
	}
	l.pre = y
	if epi.Act != nil {
		return epi.Act
	}
	return y
}

// Backward computes dW (and dB) and returns the local input-gradient
// block, a workspace buffer owned by the caller. The incoming dy is only
// read — gradient buffers, unlike activations, are never retained, so the
// caller may recycle dy as soon as Backward returns.
//
// dW and grid row 0's dB are reduced into l.W.Grad/l.B.Grad and land on the
// Proc's Grads summed in place over the depth fibre (§3.1): the all-reduces
// run while the backward pass continues into earlier layers, so on meshes
// with d > 1 the gradients are final only once Proc.DrainGradients has been
// called — trainers drain after the full backward pass, before the
// optimiser step.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	p := l.p
	ws := p.W.Workspace()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
		compute.GELUGradHadamardTo(p.W, g, l.pre, dy)
		dy, dyScratch = g, g
	}
	summa.MulATB(p.Proc, l.x, dy, l.W.Grad)
	p.Land(p.sum, l.W.Param)
	switch {
	case l.B.Param != nil:
		compute.ColSumsInto(p.W, l.B.Grad, dy)
		p.Col.ReduceInto(p.W, p.ColRank(0), l.B.Grad, l.B.Grad)
		p.Land(p.sum, l.B.Param)
	case l.hasBias:
		db := ws.GetUninitMatch(1, dy.Cols, dy.Phantom())
		compute.ColSumsInto(p.W, db, dy)
		p.Col.ReduceInto(p.W, p.ColRank(0), db, nil)
		ws.Put(db)
	}
	dx := summa.MulABT(p.Proc, dy, l.W.Value)
	if dyScratch != nil {
		ws.Put(dyScratch)
	}
	return dx
}
