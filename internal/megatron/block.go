package megatron

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Attention is the 1-D parallel self-attention module: a fused,
// head-aligned column-parallel QKV projection (heads split across the p
// processors), purely local per-head attention over full rows, and a
// row-parallel output projection whose forward all-reduce (or
// reduce-scatter) restores the bracket's activation layout.
type Attention struct {
	H, Heads, SeqLen int

	QKV  *ColLinear // h -> 3h, head-aligned permutation
	Proj *RowLinear // h -> h

	core parallel.HeadAttention // the n/p local heads
}

// NewAttention draws Wq, Wk, Wv, Wo from rng in the serial order and packs
// the first three into the fused column-permuted QKV weight: rank r holds
// [Wq_r | Wk_r | Wv_r].
func NewAttention(p *Proc, h, heads, seqLen int, rng *tensor.RNG) *Attention {
	a := newAttention(p, h, heads, seqLen)
	wq := tensor.XavierMatrix(h, h, rng)
	wk := tensor.XavierMatrix(h, h, rng)
	wv := tensor.XavierMatrix(h, h, rng)
	wo := tensor.XavierMatrix(h, h, rng)

	bc := h / p.P
	cols := make([]*tensor.Matrix, 0, 3*p.P)
	for r := 0; r < p.P; r++ {
		cols = append(cols,
			wq.SubMatrix(0, r*bc, h, bc),
			wk.SubMatrix(0, r*bc, h, bc),
			wv.SubMatrix(0, r*bc, h, bc))
	}
	a.QKV = newColFromGlobal(p, tensor.HCat(cols...), nn.ActNone, true)
	a.Proj = newRowFromGlobal(p, wo, true)
	return a
}

// NewAttentionPhantom builds the shape-only variant.
func NewAttentionPhantom(p *Proc, h, heads, seqLen int) *Attention {
	a := newAttention(p, h, heads, seqLen)
	a.QKV = NewColLinearPhantom(p, h, 3*h, nn.ActNone, true)
	a.Proj = NewRowLinearPhantom(p, h, h, true)
	return a
}

// newAttention checks that heads split over the group and returns the
// module without its projections.
func newAttention(p *Proc, h, heads, seqLen int) *Attention {
	if h%heads != 0 {
		panic(fmt.Sprintf("megatron: hidden %d not divisible by heads %d", h, heads))
	}
	if heads%p.P != 0 {
		panic(fmt.Sprintf("megatron: heads %d not divisible by p=%d", heads, p.P))
	}
	return &Attention{H: h, Heads: heads, SeqLen: seqLen,
		core: parallel.HeadAttention{Heads: heads / p.P, HeadDim: h / heads, SeqLen: seqLen}}
}

// Params returns the local shards.
func (a *Attention) Params() []*nn.Param {
	return append(a.QKV.Params(), a.Proj.Params()...)
}

// Forward runs attention over the bracket's activation x ([b·s, h]
// replicated, or this rank's b·s/p rows of it). Replicated, the fused QKV
// buffer, the Q/K/V slices and the per-head probabilities all ride to the
// step boundary; RowSharded, the fused buffer is recycled once split.
func (a *Attention) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	qkv := a.QKV.Forward(p, x)
	a.core.Split(p.W, qkv)
	if p.bracket == RowSharded {
		p.W.Workspace().Put(qkv)
	}
	return a.Proj.Forward(p, a.core.Forward(p.W))
}

// Backward propagates through the module, recycling gradient intermediates
// as soon as their last reader returns — and, RowSharded, the saved Q/K/V
// and probabilities the moment their gradients are done.
func (a *Attention) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	dout := a.Proj.Backward(p, dy)
	dqkv := a.core.Backward(p.W, dout)
	ws.Put(dout)
	if p.bracket == RowSharded {
		a.core.Release(p.W)
	}
	dx := a.QKV.Backward(p, dqkv)
	ws.Put(dqkv)
	return dx
}

// MLP is the 1-D parallel feed-forward module: column-parallel fc1
// (h → 4h/p, GELU fused) feeding row-parallel fc2 (4h/p → h), so the
// 4h-wide activation never leaves the rank. RowSharded, only the fc1
// pre-activation rides to the backward pass — the GELU output is
// recomputed there — halving the module's retained activations.
type MLP struct {
	Fc1 *ColLinear
	Fc2 *RowLinear
}

// NewMLP draws Fc1, Fc2 from rng in the serial order.
func NewMLP(p *Proc, h int, rng *tensor.RNG) *MLP {
	return pairMLP(NewColLinear(p, h, 4*h, nn.ActGELU, true, rng), NewRowLinear(p, 4*h, h, true, rng))
}

// NewMLPPhantom builds the shape-only variant.
func NewMLPPhantom(p *Proc, h int) *MLP {
	return pairMLP(NewColLinearPhantom(p, h, 4*h, nn.ActGELU, true), NewRowLinearPhantom(p, 4*h, h, true))
}

func pairMLP(fc1 *ColLinear, fc2 *RowLinear) *MLP {
	fc2.src = fc1
	return &MLP{Fc1: fc1, Fc2: fc2}
}

// Params returns the local shards.
func (m *MLP) Params() []*nn.Param {
	return append(m.Fc1.Params(), m.Fc2.Params()...)
}

// Forward applies both projections.
func (m *MLP) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	return m.Fc2.Forward(p, m.Fc1.Forward(p, x))
}

// Backward propagates through both projections. Replicated, the inner
// gradient rides to the step boundary; RowSharded it is recycled once fc1
// has consumed it.
func (m *MLP) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	d1 := m.Fc2.Backward(p, dy)
	dx := m.Fc1.Backward(p, d1)
	if p.bracket == RowSharded {
		p.W.Workspace().Put(d1)
	}
	return dx
}

// newBlock composes one 1-D parallel Transformer block from its two
// modules via the shared composition. The layer norms and residual adds
// are row-local, so they run on whatever rows the bracket leaves on the
// rank. Per layer and direction the Replicated block performs exactly two
// all-reduces of the [b·s, h] activation — the volume 2β(p−1)·b·s·h/p §3.1
// attributes to Megatron-LM; the RowSharded block moves the same bytes
// forward as two all-gathers plus two reduce-scatters, and half again
// backward for the re-gathers.
func newBlock(p *Proc, h int, attn *Attention, mlp *MLP) parallel.Layer {
	return parallel.NewBlock(p.W, h,
		bound{p: p, m: attn}, parallel.NewReplicatedLayerNorm(p.W, h),
		bound{p: p, m: mlp}, parallel.NewReplicatedLayerNorm(p.W, h))
}

// procModule is the method shape every sub-layer in this package shares:
// forward/backward over the group view plus the owned parameter shards.
type procModule interface {
	Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix
	Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix
	Params() []*nn.Param
	State(p *Proc) []parallel.State
}

// bound binds a sub-layer to its group view, adapting it to parallel.Layer.
type bound struct {
	p *Proc
	m procModule
}

func (b bound) Forward(x *tensor.Matrix) *tensor.Matrix   { return b.m.Forward(b.p, x) }
func (b bound) Backward(dy *tensor.Matrix) *tensor.Matrix { return b.m.Backward(b.p, dy) }
func (b bound) Params() []*nn.Param                       { return b.m.Params() }
func (b bound) State() []parallel.State                   { return b.m.State(b.p) }
