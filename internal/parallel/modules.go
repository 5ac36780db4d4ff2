package parallel

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Weight is a global [Rows, Cols] parameter on its way to being sharded: a
// recipe, not a matrix. It holds the generator state its first element is
// drawn from (nil means shape only, and the shards cut from it are phantoms
// — which is all a phantom layer is: no layer has a second constructor), or,
// for a fused weight, the weights its columns map onto. A rank cuts its
// rectangle by drawing that rectangle alone, so no rank holds the full
// model.
type Weight struct {
	Rows, Cols int

	at *tensor.RNG // the state element (0, 0) is drawn from
	// parts and run map a fused weight's columns: column shard j
	// (run·len(parts) wide) is [parts[0]_j | parts[1]_j | …], run columns
	// of each part.
	parts []Weight
	run   int
}

// Draw takes a Xavier weight's recipe from rng and moves rng past the
// rows·cols draws nn.NewLinear would consume, so every later draw is the
// serial stream's; a nil rng draws nothing and yields the shape alone.
func Draw(rows, cols int, rng *tensor.RNG) Weight {
	w := Weight{Rows: rows, Cols: cols}
	if rng != nil {
		at := *rng
		w.at = &at
		rng.Skip(rows * cols)
	}
	return w
}

// phantom reports a shape-only weight, whose cuts draw nothing.
func (w Weight) phantom() bool { return w.at == nil && w.parts == nil }

// fill draws row r's elements from column c on into dst, the len(dst) of
// them alone: a part's run at a time for a fused weight.
func (w Weight) fill(dst []float64, r, c int) {
	if w.parts == nil {
		tensor.XavierFill(dst, w.Rows, w.Cols, w.at, r*w.Cols+c)
		return
	}
	for len(dst) > 0 {
		j, t, k := c/(w.run*len(w.parts)), c/w.run%len(w.parts), c%w.run
		n := min(len(dst), w.run-k)
		w.parts[t].fill(dst[:n], r, j*w.run+k)
		dst, c = dst[n:], c+n
	}
}

// Param draws the [rows, cols] block at (r0, c0) as a parameter of its own,
// allocating the block alone; a phantom's value and gradient come with it
// in one allocation (nn.NewPhantomParam).
func (w Weight) Param(name string, r0, c0, rows, cols int) Shard {
	s := Shard{Rows: w.Rows, Cols: w.Cols, Row: r0, Col: c0}
	if w.phantom() {
		s.Param = nn.NewPhantomParam(name, rows, cols)
		return s
	}
	m := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		w.fill(m.Data[i*cols:(i+1)*cols], r0+i, c0)
	}
	s.Param = nn.NewParam(name, m)
	return s
}

// Bias returns the zero bias that goes with the weight's output columns
// [c0, c0+cols): that block of the canonical [1, Cols] bias.
func (w Weight) Bias(name string, c0, cols int) Shard {
	s := Shard{Rows: 1, Cols: w.Cols, Col: c0}
	if w.phantom() {
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

// NewAttention takes Wq, Wk, Wv, Wo from rng in nn.NewMultiHeadAttention's
// order (nothing when rng is nil) and maps the fused QKV weight's columns
// onto the first three so that column shard j is [Wq_j | Wk_j | Wv_j]: a
// shard's local QKV output then splits into aligned Q, K, V blocks of whole
// heads.
func NewAttention(f Linears, h, heads, seqLen int, rng *tensor.RNG) *Attention {
	shards := f.Shards()
	if h%heads != 0 || heads%shards != 0 {
		panic(fmt.Sprintf("parallel: hidden %d, %d heads and %d shards do not divide", h, heads, shards))
	}
	wq, wk, wv, wo := Draw(h, h, rng), Draw(h, h, rng), Draw(h, h, rng), Draw(h, h, rng)
	fused := Weight{Rows: h, Cols: 3 * h}
	if rng != nil {
		fused.parts, fused.run = []Weight{wq, wk, wv}, h/shards
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
