package tesseract

import "repro/internal/parallel"

// State maps the local weight block (and bias slice) onto the canonical
// [In, Out] (and [1, Out]) tensors for checkpointing (parallel.Stater).
// Weights are B-distributed — block (i, j) of the [In, Out] global,
// replicated across depth, so the k == 0 replica is the primary writer — and
// biases live only on grid row 0 as [1, Out/q] column slices. Ranks with
// i != 0 still emit the bias slot with a nil Param so the slot walk stays
// aligned across the mesh.
func (l *Linear) State() []parallel.State {
	p := l.p
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

// State returns nil: §3.2.2 layer normalisation is parameter-free.
func (l *LayerNorm) State() []parallel.State { return nil }
