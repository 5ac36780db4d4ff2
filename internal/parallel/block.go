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
// activations — and so are the layer norms but for their row statistics'
// sum over the View's column group, so one composition serves all of them;
// only the linears differ (Linears).
//
// The residual sums are transient workspace scratch (LayerNorm keeps x̂ and
// 1/σ, never its input), while the sub-layer activations ride to the step
// boundary. Backward always draws its result from the worker's workspace,
// so the caller owns the returned gradient buffer, and it recycles every
// gradient intermediate the moment its last consumer has returned: a
// sub-layer's Backward hands back a workspace buffer the composition owns
// and never retains the one it was passed.
type Block struct {
	// H is the full hidden width.
	H int

	Attn     *Attention
	Mlp      *MLP
	Ln1, Ln2 *LayerNorm

	params [8]*nn.Param // Params' backing: four linears' weights and biases

	w *dist.Worker
}

// NewBlock builds one Transformer block over the family's linears, drawing
// parameters from rng in the serial order (attention Wq..Wo, then MLP Fc1,
// Fc2 — identical to nn.NewBlock, so the two produce identical numbers on
// identical seeds); a nil rng builds the shape-only block of a timing run.
//
// Every sub-layer's Backward must return a buffer checked out of the
// worker's workspace that it keeps no reference to: the composition Puts it.
func (v *View) NewBlock(h, heads, seqLen int, rng *tensor.RNG) Layer {
	b := &Block{H: h, w: v.w}
	b.Attn, b.Ln1 = NewAttention(v.lin, h, heads, seqLen, rng), NewLayerNorm(v.w, v.cols, h)
	b.Mlp, b.Ln2 = NewMLP(v.lin, h, rng), NewLayerNorm(v.w, v.cols, h)
	return b
}

// NewBlockPhantom is NewBlock with a nil rng: the shape-only block of a
// paper-scale timing run.
func (v *View) NewBlockPhantom(h, heads, seqLen int) Layer { return v.NewBlock(h, heads, seqLen, nil) }

// Params returns the shards this rank owns, in the serial parameter order
// (attention, then MLP; the layer norms are parameter-free). The slice is
// the block's own, refilled on each call so that a walk over every block of
// a replay allocates nothing: read it, do not write it.
func (b *Block) Params() []*nn.Param {
	ps := b.params[:0]
	for _, l := range [4]Layer{b.Attn.QKV, b.Attn.Proj, b.Mlp.Fc1, b.Mlp.Fc2} {
		ps = append(ps, l.Params()...)
	}
	return ps[:len(ps):len(ps)]
}

// State concatenates the sub-layers' canonical slots in Params order.
func (b *Block) State() []State { return append(b.Attn.State(), b.Mlp.State()...) }

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
