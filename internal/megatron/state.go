package megatron

import "repro/internal/parallel"

// This file maps every Megatron layer's local shards onto the canonical
// serial parameters for checkpointing (parallel.Stater). Column- and
// row-parallel shards are distinct per rank (every holder is primary); the
// row-parallel bias is the one replicated parameter, written by group
// rank 0.

// State maps the local column block onto the canonical [In, Out] weight
// (and its bias slice onto [1, Out]).
func (l *ColLinear) State() []parallel.State {
	p := l.p
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
func (l *RowLinear) State() []parallel.State {
	p := l.p
	br := l.In / p.P
	out := make([]parallel.State, 0, 2)
	out = append(out, parallel.BlockState(l.W, l.In, l.Out, p.Rank*br, 0, true))
	if l.B != nil {
		out = append(out, parallel.FullState(l.B, 1, l.Out, p.Rank == 0))
	}
	return out
}
