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

// Param cuts the [rows, cols] block at (r0, c0) out as a parameter of its
// own; a phantom's value and gradient come with it in one allocation
// (nn.NewPhantomParam). The whole weight is cut without a copy: the
// parameter takes Full over, so a Weight is cut whole at most once.
func (w Weight) Param(name string, r0, c0, rows, cols int) Shard {
	s := Shard{Rows: w.Rows, Cols: w.Cols, Row: r0, Col: c0}
	switch {
	case w.Full == nil:
		s.Param = nn.NewPhantomParam(name, rows, cols)
	case rows == w.Rows && cols == w.Cols:
		s.Param = nn.NewParam(name, w.Full)
	default:
		s.Param = nn.NewParam(name, w.Full.SubMatrix(r0, c0, rows, cols))
	}
	return s
}

// Bias returns the zero bias that goes with the weight's output columns
// [c0, c0+cols): that block of the canonical [1, Cols] bias.
func (w Weight) Bias(name string, c0, cols int) Shard {
	s := Shard{Rows: 1, Cols: w.Cols, Col: c0}
	if w.Full == nil {
		s.Param = nn.NewPhantomParam(name, 1, cols)
	} else {
		s.Param = nn.NewParam(name, tensor.New(1, cols))
	}
	return s
}

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
}

// Attention is multi-head self-attention (Figure 5b): a fused QKV linear
// laid out so every column shard receives head-aligned Q, K and V slices,
// the local per-head attention, and an output linear. The only
// communication is inside the two linears. Every intermediate the module
// checks out goes back to the workspace at its last reader, on every
// family: the buffer footprint a planner MemoryBytes reads follows from
// that one rule.
type Attention struct {
	QKV, Proj Layer // h → 3h fused, h → h

	core HeadAttention // this rank's heads/shards heads
	w    *dist.Worker
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
			cols = append(cols, wq.Full.SubMatrix(0, j*bc, h, bc), wk.Full.SubMatrix(0, j*bc, h, bc), wv.Full.SubMatrix(0, j*bc, h, bc))
		}
		fused.Full = tensor.HCat(cols...)
	}
	a := &Attention{w: f.Worker(),
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
// serial column t·h + j·h/shards.
func (a *Attention) State() []State {
	state := a.QKV.State()
	for i, s := range state {
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
		state[i].Blocks = blocks
	}
	return append(state, a.Proj.State()...)
}

// Forward attends over the family-distributed x, whose rows cover whole
// sequences; Q, K, V and the probabilities are retained for Backward, and
// the fused QKV output goes back once Split has copied it.
func (a *Attention) Forward(x *tensor.Matrix) *tensor.Matrix {
	qkv := a.QKV.Forward(x)
	a.core.Split(a.w, qkv)
	a.w.Workspace().Put(qkv)
	return a.Proj.Forward(a.core.Forward(a.w))
}

// Backward returns the input gradient, recycling each gradient intermediate
// as soon as its last reader returns.
func (a *Attention) Backward(dy *tensor.Matrix) *tensor.Matrix {
	ws := a.w.Workspace()
	dout := a.Proj.Backward(dy)
	dqkv := a.core.Backward(a.w, dout)
	ws.Put(dout)
	dx := a.QKV.Backward(dqkv)
	ws.Put(dqkv)
	return dx
}

// MLP is the feed-forward module (Figure 5a): fc1 (h → 4h, GELU fused)
// feeding fc2 (4h → h).
type MLP struct {
	Fc1, Fc2 Layer

	w *dist.Worker
}

// NewMLP draws Fc1, Fc2 in nn.NewMLP's order (nothing when rng is nil).
func NewMLP(f Linears, h int, rng *tensor.RNG) *MLP {
	m := &MLP{w: f.Worker()}
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

// Backward propagates through both projections and returns the inner
// gradient to the workspace once fc1's backward has read it.
func (m *MLP) Backward(dy *tensor.Matrix) *tensor.Matrix {
	d1 := m.Fc2.Backward(dy)
	dx := m.Fc1.Backward(d1)
	m.w.Workspace().Put(d1)
	return dx
}
