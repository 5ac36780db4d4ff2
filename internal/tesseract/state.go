package tesseract

import "repro/internal/parallel"

// This file maps every Tesseract layer's local shards onto the canonical
// serial parameters for checkpointing (parallel.Stater). Weights are
// B-distributed — block (i, j) of the [In, Out] global, replicated across
// depth, so the k == 0 replica is the primary writer — and biases live only
// on grid row 0 as [1, Out/q] column slices. Ranks with i != 0 still emit
// the bias slot with a nil Param so the slot walk stays aligned across the
// mesh.

// State maps the local weight block (and bias slice) onto the canonical
// [In, Out] (and [1, Out]) tensors.
func (l *Linear) State(p *Proc) []parallel.State {
	q := p.Shape.Q
	primary := p.K == 0
	out := []parallel.State{
		parallel.BlockState(l.W, l.In, l.Out, p.I*(l.In/q), p.J*(l.Out/q), primary),
	}
	if l.hasBias {
		bias := parallel.State{Rows: 1, Cols: l.Out}
		if l.B != nil {
			bias = parallel.BlockState(l.B, 1, l.Out, 0, p.J*(l.Out/q), primary)
		}
		out = append(out, bias)
	}
	return out
}

// State maps the fused, column-permuted QKV shard through three rectangles
// onto the canonical unpermuted [h, 3h] concatenation [Wq | Wk | Wv] (and
// its bias onto [1, 3h]): grid column j's fused block is exactly
// [Wq_j | Wk_j | Wv_j], so fused sub-block t lands at serial column
// t·h + j·h/q. The output projection is a plain Linear.
func (a *Attention) State(p *Proc) []parallel.State {
	h, q := a.H, p.Shape.Q
	br, bc := h/q, h/q
	primary := p.K == 0
	w := parallel.State{Param: a.QKV.W, Rows: h, Cols: 3 * h, Primary: primary}
	for t := 0; t < 3; t++ {
		w.Blocks = append(w.Blocks, parallel.StateBlock{
			LocalCol:  t * bc,
			GlobalRow: p.I * br, GlobalCol: t*h + p.J*bc,
			Rows: br, Cols: bc,
		})
	}
	b := parallel.State{Rows: 1, Cols: 3 * h, Primary: primary}
	if a.QKV.B != nil {
		b.Param = a.QKV.B
		for t := 0; t < 3; t++ {
			b.Blocks = append(b.Blocks, parallel.StateBlock{
				LocalCol:  t * bc,
				GlobalCol: t*h + p.J*bc,
				Rows:      1, Cols: bc,
			})
		}
	}
	return append([]parallel.State{w, b}, a.Proj.State(p)...)
}

// State concatenates both projections' slots.
func (m *MLP) State(p *Proc) []parallel.State {
	return append(m.Fc1.State(p), m.Fc2.State(p)...)
}

// State returns nil: §3.2.2 layer normalisation is parameter-free.
func (l *LayerNorm) State(p *Proc) []parallel.State { return nil }
