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
// stay bit-identical across training steps.
type Linear struct {
	In, Out int
	Act     nn.Activation

	W *nn.Param // local [In/q, Out/q]
	B *nn.Param // [1, Out/q] on grid row 0, nil elsewhere

	hasBias bool // configuration flag, identical on every processor

	p   *Proc
	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewLinear draws the full Xavier weight from rng (consuming exactly the
// same stream as nn.NewLinear) and keeps only the local shard; a nil rng
// builds the shape-only layer of a timing run. All processors must call it
// collectively with identically seeded RNGs.
func NewLinear(p *Proc, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *Linear {
	return newLinear(p, parallel.Draw(in, out, rng), act, bias)
}

// newLinear keeps block (i, j) of a replicated global weight (Figure 4b).
// The fused QKV projection passes a column-permuted one.
func newLinear(p *Proc, full parallel.Weight, act nn.Activation, bias bool) *Linear {
	br, bc := p.BBlockShape(full.Rows, full.Cols)
	l := &Linear{In: full.Rows, Out: full.Cols, Act: act, hasBias: bias, p: p}
	l.W = nn.NewParam("tesseract.linear.w", full.Block(p.I*br, p.J*bc, br, bc))
	if bias && p.I == 0 {
		l.B = nn.NewParam("tesseract.linear.b", full.Zeros(1, bc))
	}
	return l
}

// Params returns the parameter shards this processor owns.
func (l *Linear) Params() []*nn.Param {
	if l.B == nil {
		return []*nn.Param{l.W}
	}
	return []*nn.Param{l.W, l.B}
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
	y := p.MatMulABEpi(x, p.rightOperand(l.W.Value), epi)
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
// Parameter-gradient synchronisation is asynchronous: the §3.1 depth
// all-reduces of dW and dB are queued on the Proc (QueueGradSync) and run
// while the backward pass continues into earlier layers. On meshes with
// d > 1 the gradients land in l.W.Grad/l.B.Grad only once
// Proc.DrainGradients has been called — trainers drain after the full
// backward pass, before the optimiser step.
func (l *Linear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	p := l.p
	ws := p.W.Workspace()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
		compute.GELUGradHadamardTo(p.W, g, l.pre, dy)
		dy, dyScratch = g, g
	}
	p.QueueGradSync(l.W, summa.MulATB(p.Proc, l.x, dy))
	if l.hasBias {
		db := ws.GetUninitMatch(1, dy.Cols, dy.Phantom())
		compute.ColSumsInto(p.W, db, dy)
		if p.I == 0 {
			r := ws.GetUninitMatch(1, dy.Cols, dy.Phantom())
			p.Col.ReduceInto(p.W, p.ColRank(0), db, r)
			p.QueueGradSync(l.B, r)
		} else {
			p.Col.ReduceInto(p.W, p.ColRank(0), db, nil)
		}
		ws.Put(db)
	}
	dx := p.MatMulABT(dy, l.W.Value)
	if dyScratch != nil {
		ws.Put(dyScratch)
	}
	return dx
}
