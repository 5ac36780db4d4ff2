package parallel

import (
	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Block is the shared Transformer-layer composition every family reuses:
// z = LN₂(y + MLP(y)) with y = LN₁(x + Attn(x)), the paper's
// residual-plus-layer-norm structure. Residual adds are local in every
// family — Tesseract adds local blocks (§3.2.2), Megatron adds replicated
// activations — so one composition serves all of them; only the linears
// and the layer norms differ (Linears).
//
// The residual sums are transient workspace scratch (the layer norms of
// every family do not retain their inputs), while the sub-layer
// activations ride to the step boundary. Backward always draws its result
// from the worker's workspace, so the caller owns the returned gradient
// buffer, and it recycles every gradient intermediate the moment its last
// consumer has returned: a sub-layer's Backward hands back a workspace
// buffer the composition owns and never retains the one it was passed.
type Block struct {
	// H is the full hidden width.
	H int

	Attn     *Attention
	Mlp      *MLP
	Ln1, Ln2 Layer // the family's layer norms

	w *dist.Worker
}

// NewBlock builds a family's Transformer block, drawing parameters from rng
// in the serial order (attention Wq..Wo, then MLP Fc1, Fc2 — identical to
// nn.NewBlock, so the two produce identical numbers on identical seeds); a
// nil rng builds the shape-only block of a timing run.
//
// Contract on the family's layer norms, stricter than the general Layer
// contract: their Forward must NOT retain its input. The composition hands
// each layer norm a transient residual buffer and recycles it the moment
// Forward returns, so a norm that saves x (instead of derived statistics, as
// nn.LayerNorm and tesseract.LayerNorm both do — they keep x̂ and 1/σ)
// would see its saved activation overwritten before the backward pass.
// And every sub-layer's Backward must return a buffer checked out of the
// worker's workspace that it keeps no reference to: the composition Puts it.
func NewBlock(f Linears, h, heads, seqLen int, rng *tensor.RNG) *Block {
	b := &Block{H: h, w: f.Worker()}
	b.Attn, b.Ln1 = NewAttention(f, h, heads, seqLen, rng), f.NewLayerNorm(h)
	b.Mlp, b.Ln2 = NewMLP(f, h, rng), f.NewLayerNorm(h)
	return b
}

// Params returns the shards this rank owns, in the serial parameter order
// (attention, then MLP; the layer norms are parameter-free).
func (b *Block) Params() []*nn.Param {
	out := append(b.Attn.Params(), b.Ln1.Params()...)
	out = append(out, b.Mlp.Params()...)
	return append(out, b.Ln2.Params()...)
}

// State concatenates the sub-layers' canonical slots in Params order.
func (b *Block) State() []State {
	out := append(b.Attn.State(), b.Ln1.State()...)
	out = append(out, b.Mlp.State()...)
	return append(out, b.Ln2.State()...)
}

// Forward computes the block output on this rank's activation blocks.
func (b *Block) Forward(x *tensor.Matrix) *tensor.Matrix {
	ws := b.w.Workspace()
	attn := b.Attn.Forward(x)
	r1 := ws.GetUninitMatch(x.Rows, x.Cols, x.Phantom() || attn.Phantom())
	compute.AddTo(b.w, r1, x, attn)
	y := b.Ln1.Forward(r1)
	ws.Put(r1)
	mlp := b.Mlp.Forward(y)
	r2 := ws.GetUninitMatch(y.Rows, y.Cols, y.Phantom() || mlp.Phantom())
	compute.AddTo(b.w, r2, y, mlp)
	z := b.Ln2.Forward(r2)
	ws.Put(r2)
	return z
}

// Backward propagates through the block and returns the input gradient, a
// workspace buffer owned by the caller.
func (b *Block) Backward(dz *tensor.Matrix) *tensor.Matrix {
	ws := b.w.Workspace()
	dr2 := b.Ln2.Backward(dz)
	dmlp := b.Mlp.Backward(dr2)
	dy := ws.GetUninitMatch(dr2.Rows, dr2.Cols, dr2.Phantom() || dmlp.Phantom())
	compute.AddTo(b.w, dy, dr2, dmlp)
	ws.Put(dr2, dmlp)
	dr1 := b.Ln1.Backward(dy)
	ws.Put(dy)
	dattn := b.Attn.Backward(dr1)
	dx := ws.GetUninitMatch(dr1.Rows, dr1.Cols, dr1.Phantom() || dattn.Phantom())
	compute.AddTo(b.w, dx, dr1, dattn)
	ws.Put(dr1, dattn)
	return dx
}
