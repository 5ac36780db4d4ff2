package parallel

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Weight is a global [Rows, Cols] parameter on its way to being sharded.
// Full holds the values every rank drew from its identically seeded stream;
// nil means shape only, and the shards cut from it are phantoms — which is
// all a phantom layer is: no layer has a second constructor.
type Weight struct {
	Rows, Cols int
	Full       *tensor.Matrix
}

// Draw draws a Xavier weight from rng, consuming the stream nn.NewLinear
// does; a nil rng draws nothing and yields the shape alone.
func Draw(rows, cols int, rng *tensor.RNG) Weight {
	w := Weight{Rows: rows, Cols: cols}
	if rng != nil {
		w.Full = tensor.XavierMatrix(rows, cols, rng)
	}
	return w
}

// Block cuts the [rows, cols] shard at (r0, c0) out as a matrix of its own.
func (w Weight) Block(r0, c0, rows, cols int) *tensor.Matrix {
	if w.Full == nil {
		return tensor.NewPhantom(rows, cols)
	}
	return w.Full.SubMatrix(r0, c0, rows, cols)
}

// Zeros returns the zero bias that goes with a shard of the weight.
func (w Weight) Zeros(rows, cols int) *tensor.Matrix {
	if w.Full == nil {
		return tensor.NewPhantom(rows, cols)
	}
	return tensor.New(rows, cols)
}

// Lifetime is when a family's sub-modules return their intermediates to the
// workspace. Simulated clocks and planner footprints depend on it: every
// buffer goes back at exactly the program point its regime names.
type Lifetime int

const (
	// KeepAll holds everything to the step boundary (Megatron-LM).
	KeepAll Lifetime = iota
	// RecycleGrads returns the MLP's inner gradient once fc1 has consumed it
	// (Tesseract, Optimus).
	RecycleGrads
	// Transient also returns the fused QKV output once it is split and the
	// attention core's saved Q, K, V and probabilities once their gradients
	// are done (sequence parallelism).
	Transient
)

// Linears is all that differs between the four families' Transformer
// blocks; attention and the MLP are the serial math over these linears
// (§3.2.1, Figure 5).
type Linears interface {
	Worker() *dist.Worker
	// Shards is how many ways the family splits a weight's output columns,
	// and with them the heads: q on a mesh, p in a 1-D group.
	Shards() int
	// NewLinearPair shards a sub-module's two biased linears: the first
	// reads the module's input and applies act, the second maps its output
	// back to the module's activation layout.
	NewLinearPair(in, out Weight, act nn.Activation) (Layer, Layer)
	NewLayerNorm(h int) Layer
	Lifetime() Lifetime
}

// Attention is multi-head self-attention (Figure 5b): a fused QKV linear
// laid out so every column shard receives head-aligned Q, K and V slices,
// the local per-head attention, and an output linear. The only
// communication is inside the two linears.
type Attention struct {
	QKV, Proj Layer // h → 3h fused, h → h

	core  HeadAttention // this rank's heads/shards heads
	w     *dist.Worker
	life  Lifetime
	state []State
}

// NewAttention draws Wq, Wk, Wv, Wo in nn.NewMultiHeadAttention's order
// (nothing when rng is nil) and fuses the first three so that column shard j
// is [Wq_j | Wk_j | Wv_j]: a shard's local QKV output then splits into
// aligned Q, K, V blocks of whole heads.
func NewAttention(f Linears, h, heads, seqLen int, rng *tensor.RNG) *Attention {
	shards := f.Shards()
	if h%heads != 0 || heads%shards != 0 {
		panic(fmt.Sprintf("parallel: hidden %d, %d heads and %d shards do not divide", h, heads, shards))
	}
	wq, wk, wv, wo := Draw(h, h, rng), Draw(h, h, rng), Draw(h, h, rng), Draw(h, h, rng)
	fused := Weight{Rows: h, Cols: 3 * h}
	if rng != nil {
		bc := h / shards
		cols := make([]*tensor.Matrix, 0, 3*shards)
		for j := 0; j < shards; j++ {
			cols = append(cols, wq.Block(0, j*bc, h, bc), wk.Block(0, j*bc, h, bc), wv.Block(0, j*bc, h, bc))
		}
		fused.Full = tensor.HCat(cols...)
	}
	a := &Attention{w: f.Worker(), life: f.Lifetime(),
		core: HeadAttention{Heads: heads / shards, HeadDim: h / heads, SeqLen: seqLen}}
	a.QKV, a.Proj = f.NewLinearPair(fused, wo, nn.ActNone)
	return a
}

// Params returns the shards this rank owns.
func (a *Attention) Params() []*nn.Param {
	return append(a.QKV.Params(), a.Proj.Params()...)
}

// State un-fuses the QKV linear's own slots onto the canonical [Wq | Wk | Wv]
// (and its [1, 3h] bias): a rectangle covering column shard j of the fused
// weight is [Wq_j | Wk_j | Wv_j], so its third t, h/shards wide, lands at
// serial column t·h + j·h/shards. The walk is computed once — shards and
// rectangles never move, and every collect and restore asks for it.
func (a *Attention) State() []State {
	if a.state == nil {
		a.state = a.QKV.State()
		for i, s := range a.state {
			blocks := make([]StateBlock, 0, 3*len(s.Blocks))
			for _, b := range s.Blocks {
				if b.Cols%3 != 0 || b.GlobalCol%b.Cols != 0 {
					panic(fmt.Sprintf("parallel: fused QKV rectangle %+v is not a column shard of [%d, %d]", b, s.Rows, s.Cols))
				}
				for t := 0; t < 3; t++ {
					r := b
					r.Cols = b.Cols / 3
					r.LocalCol, r.GlobalCol = b.LocalCol+t*r.Cols, t*s.Cols/3+b.GlobalCol/3
					blocks = append(blocks, r)
				}
			}
			a.state[i].Blocks = blocks
		}
		a.state = append(a.state, a.Proj.State()...)
	}
	return a.state[:len(a.state):len(a.state)] // a caller's append copies
}

// Forward attends over the family-distributed x, whose rows cover whole
// sequences; Q, K, V and the probabilities are retained for Backward.
func (a *Attention) Forward(x *tensor.Matrix) *tensor.Matrix {
	qkv := a.QKV.Forward(x)
	a.core.Split(a.w, qkv)
	if a.life == Transient {
		a.w.Workspace().Put(qkv)
	}
	return a.Proj.Forward(a.core.Forward(a.w))
}

// Backward returns the input gradient, recycling each gradient intermediate
// as soon as its last reader returns.
func (a *Attention) Backward(dy *tensor.Matrix) *tensor.Matrix {
	ws := a.w.Workspace()
	dout := a.Proj.Backward(dy)
	dqkv := a.core.Backward(a.w, dout)
	ws.Put(dout)
	if a.life == Transient {
		a.core.Release(a.w)
	}
	dx := a.QKV.Backward(dqkv)
	ws.Put(dqkv)
	return dx
}

// MLP is the feed-forward module (Figure 5a): fc1 (h → 4h, GELU fused)
// feeding fc2 (4h → h).
type MLP struct {
	Fc1, Fc2 Layer

	w    *dist.Worker
	life Lifetime
}

// NewMLP draws Fc1, Fc2 in nn.NewMLP's order (nothing when rng is nil).
func NewMLP(f Linears, h int, rng *tensor.RNG) *MLP {
	m := &MLP{w: f.Worker(), life: f.Lifetime()}
	m.Fc1, m.Fc2 = f.NewLinearPair(Draw(h, 4*h, rng), Draw(4*h, h, rng), nn.ActGELU)
	return m
}

// Params returns the shards this rank owns.
func (m *MLP) Params() []*nn.Param {
	return append(m.Fc1.Params(), m.Fc2.Params()...)
}

// State concatenates both projections' slots.
func (m *MLP) State() []State {
	return append(m.Fc1.State(), m.Fc2.State()...)
}

// Forward applies both projections.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	return m.Fc2.Forward(m.Fc1.Forward(x))
}

// Backward propagates through both projections.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix {
	d1 := m.Fc2.Backward(dy)
	dx := m.Fc1.Backward(d1)
	if m.life != KeepAll {
		m.w.Workspace().Put(d1)
	}
	return dx
}
