package vit

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DistModel is the distributed ViT over any tensor-parallel family: the
// patch embedding and the encoder stack are family-distributed (Tesseract
// A-distributed blocks, Megatron replicated activations — the model never
// knows which); the tiny classification head is computed redundantly on
// every processor from the gathered pooled features — the standard
// treatment for heads whose cost is negligible, which keeps the head
// parameters replicated and bit-identical across processors.
type DistModel struct {
	Config ModelConfig
	F      parallel.Family

	Embed  parallel.Layer
	Pos    *tensor.Matrix // full [s, hidden]; sliced locally on use
	Blocks []parallel.Layer
	Head   *parallel.Dense

	batch  int
	pooled *tensor.Matrix // replicated [b, hidden]

	// params and state are the Params and State walks, made on first use:
	// a walk allocates, and trainers and checkpoints ask on every step and
	// every re-shard.
	params []*nn.Param
	state  []parallel.State
}

// NewDistModel draws parameters from the same stream as NewModel, so the
// distributed weights shard (or replicate) the serial model's weights
// exactly, whatever the family.
func NewDistModel(f parallel.Family, cfg ModelConfig) *DistModel {
	rng := tensor.NewRNG(cfg.Seed)
	m := &DistModel{Config: cfg, F: f, Pos: cfg.Positional()}
	m.Embed = f.NewLinear(cfg.PatchDim, cfg.Hidden, nn.ActNone, true, rng)
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, f.NewBlock(cfg.Hidden, cfg.Heads, cfg.SeqLen, rng))
	}
	// Every family's head is the whole-weight Dense.
	m.Head = f.NewHead(cfg.Hidden, cfg.Classes, rng)
	return m
}

// State enumerates the model's canonical checkpoint slots in parameter
// order (embedding, blocks, head) — the family-agnostic walk
// parallel.CollectInto and parallel.Restore move training state through. The
// walk is made once; callers share the slice and must not modify it.
func (m *DistModel) State() []parallel.State {
	if m.state == nil {
		m.state = m.Embed.State()
		for _, b := range m.Blocks {
			m.state = append(m.state, b.State()...)
		}
		m.state = append(m.state, m.Head.State()...)
	}
	return m.state
}

// Params returns this processor's parameter shards plus the replicated
// head. The walk is made once; callers share the slice and must not modify
// it.
func (m *DistModel) Params() []*nn.Param {
	if m.params == nil {
		m.params = m.Embed.Params()
		for _, b := range m.Blocks {
			m.params = append(m.params, b.Params()...)
		}
		m.params = append(m.params, m.Head.Params()...)
	}
	return m.params
}

// Forward maps the local token block to replicated logits [b, classes].
// Intermediates come from the worker's workspace; the trainer releases
// them at each step boundary (Family.EndStep).
func (m *DistModel) Forward(x *tensor.Matrix) *tensor.Matrix {
	w, ws := m.F.Worker(), m.F.Worker().Workspace()
	s := m.Config.SeqLen
	h := m.Embed.Forward(x)
	h = m.addPositionalLocal(h)
	for _, b := range m.Blocks {
		h = b.Forward(h)
	}
	w.Compute(float64(h.Size()))
	pooledLocal := ws.GetUninit(h.Rows/s, h.Cols)
	meanPoolInto(pooledLocal, h, s)
	// The family gathers the pooled features into the full replicated
	// [b, hidden] matrix (ownership of pooledLocal transfers to it); for
	// replicated-activation families this is the identity.
	m.pooled = m.F.GatherPooled(pooledLocal)
	m.batch = m.pooled.Rows
	return m.Head.Forward(m.pooled)
}

// Backward takes the replicated dLogits and propagates to all shards.
func (m *DistModel) Backward(dlogits *tensor.Matrix) {
	ws := m.F.Worker().Workspace()
	dpooled := m.Head.Backward(dlogits) // replicated [b, hidden]

	// Slice this processor's share of the pooled gradient back out.
	s := m.Config.SeqLen
	sl := m.F.Slice(m.batch, m.Config.Hidden)
	local := ws.GetUninit(sl.Rows, sl.Cols)
	tensor.SubMatrixInto(local, dpooled, sl.Row0, sl.Col0)
	dh := ws.GetUninit(sl.Rows*s, sl.Cols)
	meanPoolBackwardInto(dh, local, s)
	ws.Put(local)
	m.F.Worker().Compute(float64(dh.Size()))
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		prev := dh
		dh = m.Blocks[i].Backward(prev)
		ws.Put(prev)
	}
	m.Embed.Backward(dh)
	ws.Put(dh)
	// Complete the gradient synchronisations the layers deferred: after
	// this every parameter gradient is final and the optimiser may step.
	m.F.DrainGradients()
}

// addPositionalLocal adds this processor's slice of the fixed positional
// encoding: the family's Slice reports which rows (whole sequences, so the
// row offset is a multiple of s) and which hidden columns the local block
// holds. The result is a workspace buffer (the embedding output is
// retained by the embedding layer and must not be mutated).
func (m *DistModel) addPositionalLocal(h *tensor.Matrix) *tensor.Matrix {
	s := m.Config.SeqLen
	sl := m.F.Slice(h.Rows*m.F.RowShards(), m.Config.Hidden)
	w := m.F.Worker()
	w.Compute(float64(h.Size()) * compute.FlopsPerAdd)
	out := w.Workspace().GetUninit(h.Rows, h.Cols)
	for r := 0; r < h.Rows; r++ {
		prow := m.Pos.Row((sl.Row0 + r) % s)[sl.Col0 : sl.Col0+h.Cols]
		hrow := h.Row(r)
		orow := out.Row(r)
		for j := range orow {
			orow[j] = hrow[j] + prow[j]
		}
	}
	return out
}

// DistributeBatch slices a global token matrix [b·s, patchDim] into this
// processor's block. Whole sequences land on one processor, which requires
// b to divide by the family's row-shard count (d·q for Tesseract, 1 for
// replicated-activation families). Callers validate the batch first
// (TrainableErr is the error a user sees); the panic guards the invariant.
func DistributeBatch(f parallel.Family, x *tensor.Matrix, s int) *tensor.Matrix {
	b := x.Rows / s
	if b%f.RowShards() != 0 {
		panic(fmt.Sprintf("vit: DistributeBatch: %d sequences do not split over the %s family's %d row shards",
			b, f.Layout().Family, f.RowShards()))
	}
	return f.Distribute(x)
}
