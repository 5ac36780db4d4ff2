package megatron

import "repro/internal/parallel"

// This file maps every Megatron layer's local shards onto the canonical
// serial parameters for checkpointing (parallel.Stater). Column- and
// row-parallel shards are distinct per rank (every holder is primary); the
// row-parallel bias is the one replicated parameter, written by group
// rank 0.

// State maps the local column block onto the canonical [In, Out] weight
// (and its bias slice onto [1, Out]).
func (l *ColLinear) State(p *Proc) []parallel.State {
	bc := l.Out / p.P
	out := make([]parallel.State, 0, 2)
	out = append(out, parallel.BlockState(l.W, l.In, l.Out, 0, p.Rank*bc, true))
	if l.B != nil {
		out = append(out, parallel.BlockState(l.B, 1, l.Out, 0, p.Rank*bc, true))
	}
	return out
}

// State maps the local row block onto the canonical [In, Out] weight; the
// replicated bias is a full slot written by group rank 0.
func (l *RowLinear) State(p *Proc) []parallel.State {
	br := l.In / p.P
	out := make([]parallel.State, 0, 2)
	out = append(out, parallel.BlockState(l.W, l.In, l.Out, p.Rank*br, 0, true))
	if l.B != nil {
		out = append(out, parallel.FullState(l.B, 1, l.Out, p.Rank == 0))
	}
	return out
}

// State maps the fused, column-permuted QKV shard through three rectangles
// onto the canonical unpermuted [h, 3h] concatenation [Wq | Wk | Wv] (and
// its bias onto [1, 3h]): rank r's fused block is [Wq_r | Wk_r | Wv_r], so
// fused sub-block t lands at serial column t·h + r·h/p. The output
// projection is a plain RowLinear.
func (a *Attention) State(p *Proc) []parallel.State {
	h := a.H
	bc := h / p.P
	w := parallel.State{Param: a.QKV.W, Rows: h, Cols: 3 * h, Primary: true, Blocks: make([]parallel.StateBlock, 3)}
	b := parallel.State{Param: a.QKV.B, Rows: 1, Cols: 3 * h, Primary: true, Blocks: make([]parallel.StateBlock, 3)}
	for t := 0; t < 3; t++ {
		w.Blocks[t] = parallel.StateBlock{
			LocalCol:  t * bc,
			GlobalCol: t*h + p.Rank*bc,
			Rows:      h, Cols: bc,
		}
		b.Blocks[t] = parallel.StateBlock{
			LocalCol:  t * bc,
			GlobalCol: t*h + p.Rank*bc,
			Rows:      1, Cols: bc,
		}
	}
	out := make([]parallel.State, 0, 4)
	return append(append(out, w, b), a.Proj.State(p)...)
}

// State concatenates both projections' slots.
func (m *MLP) State(p *Proc) []parallel.State {
	out := make([]parallel.State, 0, 4)
	return append(append(out, m.Fc1.State(p)...), m.Fc2.State(p)...)
}
