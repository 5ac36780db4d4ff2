package parallel

import (
	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model is one rank's share of the network the trainer, the server and
// every replay run, on any family. The trainer and the server run the
// classifier: the patch embedding, the fixed positional add, the Transformer
// blocks, mean pooling, and the pooled features gathered into the Dense head,
// which every rank computes redundantly (the standard treatment for a head
// whose cost is negligible). Without an embedding and a head it is the
// paper's block stack, which a replay (Stack) times. A phantom pass checks
// out and charges what a real one does, so the shape-only model (a nil rng),
// classifier included, runs as its real twin bit for bit.
type Model struct {
	F      Family
	Embed  Layer          // nil: the input is the first block's
	Pos    *tensor.Matrix // full [seqLen, hidden], sliced locally; added after Embed
	Blocks []Layer
	Head   *Dense // nil: Forward returns the last block's output

	pooled *tensor.Matrix // replicated [b, hidden]

	// params and state are the Params and State walks, made on first use:
	// a walk allocates, and trainers and checkpoints ask on every step and
	// every re-shard.
	params []*nn.Param
	state  []State
}

// NewModel draws the model's parameters from rng in the serial order —
// embedding, blocks, head — so every family shards (or replicates) the
// serial model's weights exactly; a nil rng builds the shape-only model. A
// zero patchDim builds no embedding and a zero classes no head; either needs
// pos, the [seqLen, hidden] positional encoding.
func NewModel(f Family, patchDim, seqLen, hidden, heads, layers, classes int, pos *tensor.Matrix, rng *tensor.RNG) *Model {
	m := new(Model)
	m.build(f, patchDim, seqLen, hidden, heads, layers, classes, pos, rng)
	return m
}

// build is NewModel in place, so a Stack holds its model without a second
// allocation.
func (m *Model) build(f Family, patchDim, seqLen, hidden, heads, layers, classes int, pos *tensor.Matrix, rng *tensor.RNG) {
	*m = Model{F: f, Pos: pos, Blocks: make([]Layer, layers)}
	if patchDim > 0 {
		m.Embed = f.NewLinear(patchDim, hidden, nn.ActNone, true, rng)
	}
	for i := range m.Blocks {
		m.Blocks[i] = f.NewBlock(hidden, heads, seqLen, rng)
	}
	if classes > 0 {
		m.Head = f.NewHead(hidden, classes, rng)
	}
}

// walk concatenates what get returns for each layer, in parameter order.
func walk[T any](m *Model, get func(Layer) []T) []T {
	var out []T
	if m.Embed != nil {
		out = append(out, get(m.Embed)...)
	}
	for _, b := range m.Blocks {
		out = append(out, get(b)...)
	}
	if m.Head != nil {
		out = append(out, get(m.Head)...)
	}
	return out
}

// State enumerates the model's canonical checkpoint slots in parameter
// order, the walk CollectInto and Restore move training state through. It
// is made once; callers share the slice and must not modify it.
func (m *Model) State() []State {
	if m.state == nil {
		m.state = walk(m, Layer.State)
	}
	return m.state
}

// Params returns this rank's parameter shards, the replicated head's
// included, walked once as State is.
func (m *Model) Params() []*nn.Param {
	if m.params == nil {
		m.params = walk(m, Layer.Params)
	}
	return m.params
}

// Forward maps the local block of x to the replicated logits [b, classes],
// or to the last block's output when there is no head. Intermediates come
// from the worker's workspace; the caller releases them at the step
// boundary (Family.EndStep).
func (m *Model) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	if m.Embed != nil {
		h = m.addPositionalLocal(m.Embed.Forward(x))
	}
	for _, b := range m.Blocks {
		h = b.Forward(h)
	}
	if m.Head == nil {
		return h
	}
	w := m.F.Worker()
	w.Compute(float64(h.Size()))
	pooledLocal := w.Workspace().GetUninitMatch(h.Rows/m.Pos.Rows, h.Cols, h.Phantom())
	MeanPoolInto(pooledLocal, h, m.Pos.Rows)
	// The family gathers the pooled features into the full replicated
	// [b, hidden] matrix (ownership of pooledLocal transfers to it); for
	// replicated-activation families this is the identity.
	m.pooled = m.F.GatherPooled(pooledLocal)
	return m.Head.Forward(m.pooled)
}

// Backward takes the gradient of Forward's output and propagates it to
// every shard, returning each block's input gradient to the workspace at its
// last reader and the embedding's at once (dy stays the caller's). It ends
// with DrainGradients, so the deferred gradient sums (§3.1) overlap the
// backward and the optimiser may step.
func (m *Model) Backward(dy *tensor.Matrix) {
	ws := m.F.Worker().Workspace()
	dh := dy
	if m.Head != nil {
		dpooled := m.Head.Backward(dy) // replicated [b, hidden]
		// Slice this rank's share of the pooled gradient back out.
		sl, ph := m.F.Slice(m.pooled.Rows, m.Pos.Cols), dpooled.Phantom()
		local := ws.GetUninitMatch(sl.Rows, sl.Cols, ph)
		tensor.SubMatrixInto(local, dpooled, sl.Row0, sl.Col0)
		dh = ws.GetUninitMatch(sl.Rows*m.Pos.Rows, sl.Cols, ph)
		MeanPoolBackwardInto(dh, local, m.Pos.Rows)
		ws.Put(local)
		m.F.Worker().Compute(float64(dh.Size()))
	}
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		prev := dh
		dh = m.Blocks[i].Backward(prev)
		if prev != dy {
			ws.Put(prev)
		}
	}
	if m.Embed != nil {
		ws.Put(m.Embed.Backward(dh)) // nothing reads the tokens' gradient
	}
	if dh != dy {
		ws.Put(dh)
	}
	m.F.DrainGradients()
}

// addPositionalLocal adds this rank's slice of the fixed positional
// encoding: the family's Slice reports which rows (whole sequences, so the
// row offset is a multiple of seqLen) and which hidden columns the local
// block holds. The result is a workspace buffer (the embedding output is
// retained by the embedding layer and must not be mutated).
func (m *Model) addPositionalLocal(h *tensor.Matrix) *tensor.Matrix {
	sl := m.F.Slice(h.Rows*m.F.RowShards(), m.Pos.Cols)
	w := m.F.Worker()
	w.Compute(float64(h.Size()) * compute.FlopsPerAdd)
	out := w.Workspace().GetUninitMatch(h.Rows, h.Cols, h.Phantom())
	for r := 0; !h.Phantom() && r < h.Rows; r++ {
		prow := m.Pos.Row((sl.Row0 + r) % m.Pos.Rows)[sl.Col0 : sl.Col0+h.Cols]
		hrow := h.Row(r)
		orow := out.Row(r)
		for j := range orow {
			orow[j] = hrow[j] + prow[j]
		}
	}
	return out
}

// MeanPoolInto averages each sequence's s token rows into one row of out
// ([h.Rows/s, h.Cols], overwritten; not on phantoms).
func MeanPoolInto(out, h *tensor.Matrix, s int) {
	inv := 1 / float64(s)
	for seq := 0; !h.Phantom() && seq < h.Rows/s; seq++ {
		orow := out.Row(seq)
		clear(orow)
		for t := 0; t < s; t++ {
			row := h.Row(seq*s + t)
			for j := range orow {
				orow[j] += row[j] * inv
			}
		}
	}
}

// MeanPoolBackwardInto spreads each pooled gradient row back over its s
// tokens of out ([dpooled.Rows·s, dpooled.Cols], overwritten; not on phantoms).
func MeanPoolBackwardInto(out, dpooled *tensor.Matrix, s int) {
	inv := 1 / float64(s)
	for seq := 0; !dpooled.Phantom() && seq < dpooled.Rows; seq++ {
		drow := dpooled.Row(seq)
		for t := 0; t < s; t++ {
			orow := out.Row(seq*s + t)
			for j := range orow {
				orow[j] = drow[j] * inv
			}
		}
	}
}
