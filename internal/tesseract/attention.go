package tesseract

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Attention is the Tesseract-parallel multi-head self-attention layer of
// §3.2.1 (Figure 5b). The fused QKV projection is a Tesseract Linear with a
// [h, 3h] weight laid out so each grid column receives head-aligned Q, K and
// V slices; the per-head attention math then runs entirely locally (each
// processor owns n/q whole heads of b/(dq) whole sequences), and the output
// projection is another Tesseract Linear. The only communication is inside
// the two linears, exactly as the paper describes.
type Attention struct {
	H, Heads, SeqLen int

	QKV  *Linear // h -> 3h, head-aligned column permutation
	Proj *Linear // h -> h

	core parallel.HeadAttention // the n/q local heads
}

// NewAttention draws Wq, Wk, Wv, Wo (plus zero biases) from rng in the same
// order as nn.NewMultiHeadAttention, then packs Wq|Wk|Wv into the fused
// column-permuted QKV weight: grid column j holds [Wq_j | Wk_j | Wv_j], so
// the local output splits into aligned Q, K, V blocks of h/q columns each.
func NewAttention(p *Proc, h, heads, seqLen int, rng *tensor.RNG) *Attention {
	a := newAttention(p, h, heads, seqLen)
	wq := tensor.XavierMatrix(h, h, rng)
	wk := tensor.XavierMatrix(h, h, rng)
	wv := tensor.XavierMatrix(h, h, rng)
	wo := tensor.XavierMatrix(h, h, rng)

	q := p.Shape.Q
	bc := h / q
	cols := make([]*tensor.Matrix, 0, 3*q)
	for j := 0; j < q; j++ {
		cols = append(cols,
			wq.SubMatrix(0, j*bc, h, bc),
			wk.SubMatrix(0, j*bc, h, bc),
			wv.SubMatrix(0, j*bc, h, bc))
	}
	fused := tensor.HCat(cols...)

	a.QKV = newLinearFromGlobal(p, fused, nn.ActNone, true)
	a.Proj = newLinearFromGlobal(p, wo, nn.ActNone, true)
	return a
}

// NewAttentionPhantom builds the shape-only variant for paper-scale timing.
func NewAttentionPhantom(p *Proc, h, heads, seqLen int) *Attention {
	a := newAttention(p, h, heads, seqLen)
	a.QKV = NewLinearPhantom(p, h, 3*h, nn.ActNone, true)
	a.Proj = NewLinearPhantom(p, h, h, nn.ActNone, true)
	return a
}

// newAttention checks that heads split over the grid columns and returns
// the module without its projections.
func newAttention(p *Proc, h, heads, seqLen int) *Attention {
	if h%heads != 0 {
		panic(fmt.Sprintf("tesseract: hidden %d not divisible by heads %d", h, heads))
	}
	if heads%p.Shape.Q != 0 {
		panic(fmt.Sprintf("tesseract: heads %d not divisible by q=%d", heads, p.Shape.Q))
	}
	return &Attention{H: h, Heads: heads, SeqLen: seqLen,
		core: parallel.HeadAttention{Heads: heads / p.Shape.Q, HeadDim: h / heads, SeqLen: seqLen}}
}

// Params returns the shards this processor owns.
func (a *Attention) Params() []*nn.Param {
	return append(a.QKV.Params(), a.Proj.Params()...)
}

// Forward runs attention over the local block x of shape [m̂, h/q], where
// m̂ = b·s/(d·q) rows cover whole sequences (the batch must divide d·q).
// The Q/K/V slices and the per-head probabilities are retained for the
// backward pass in workspace buffers, released at the step boundary.
func (a *Attention) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	a.core.Split(p.W, a.QKV.Forward(p, x))
	return a.Proj.Forward(p, a.core.Forward(p.W))
}

// Backward propagates through the attention module and returns the local
// input gradient. Gradient intermediates are recycled as soon as their last
// reader returns (no layer retains its Backward input).
func (a *Attention) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	dout := a.Proj.Backward(p, dy)
	dqkv := a.core.Backward(p.W, dout)
	ws.Put(dout)
	dx := a.QKV.Backward(p, dqkv)
	ws.Put(dqkv)
	return dx
}
