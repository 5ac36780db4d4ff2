package summa

import (
	"repro/internal/compute"
	"repro/internal/mesh"
	"repro/internal/tensor"
)

// Blocking reference schedules: the serial SUMMA loops the pipelined
// kernels replaced — one receive panel per operand, every broadcast and
// reduce fully synchronous, one collective in flight at a time. They are
// kept as the oracle for TestPipelinedMatchesBlockingBitwise: the
// double-buffered kernels must reproduce these results bit for bit on
// every rank, which pins down both the arithmetic association and the
// issue-order pairing of the nonblocking runtime.

// mulABBlocking is the serial-schedule MulAB.
func mulABBlocking(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	c := ws.GetMatch(a.Rows, b.Cols, a.Phantom() || b.Phantom())
	aPanel := ws.GetUninitMatch(a.Rows, a.Cols, a.Phantom())
	bPanel := ws.GetUninitMatch(b.Rows, b.Cols, b.Phantom())
	for t := 0; t < p.Shape.Q; t++ {
		ap := bcastRowInto(p, t, a, aPanel)
		bp := bcastColInto(p, t, b, bPanel)
		compute.MatMulInto(p.W, c, ap, bp)
	}
	ws.Put(aPanel, bPanel)
	return c
}

// mulABTBlocking is the serial-schedule MulABT.
func mulABTBlocking(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	ph := a.Phantom() || b.Phantom()
	bPanel := ws.GetUninitMatch(b.Rows, b.Cols, b.Phantom())
	partial := ws.GetUninitMatch(a.Rows, b.Rows, ph)
	var out *tensor.Matrix
	for j := 0; j < p.Shape.Q; j++ {
		var bp *tensor.Matrix
		if p.I == j {
			bp = p.Col.BroadcastInto(p.W, p.ColRank(j), b, b)
		} else {
			bp = p.Col.BroadcastInto(p.W, p.ColRank(j), nil, bPanel)
		}
		compute.MatMulNTInto(p.W, partial, a, bp)
		if p.J == j {
			out = ws.GetUninitMatch(a.Rows, b.Rows, ph)
			p.Row.ReduceInto(p.W, p.RowRank(j), partial, out)
		} else {
			p.Row.ReduceInto(p.W, p.RowRank(j), partial, nil)
		}
	}
	ws.Put(bPanel, partial)
	return out
}

// mulATBBlocking is the serial-schedule MulATB.
func mulATBBlocking(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	ph := a.Phantom() || b.Phantom()
	aPanel := ws.GetUninitMatch(a.Rows, a.Cols, a.Phantom())
	partial := ws.GetUninitMatch(a.Cols, b.Cols, ph)
	var out *tensor.Matrix
	for t := 0; t < p.Shape.Q; t++ {
		ap := bcastRowInto(p, t, a, aPanel)
		partial.Zero()
		compute.MatMulTNInto(p.W, partial, ap, b)
		if p.I == t {
			out = ws.GetUninitMatch(a.Cols, b.Cols, ph)
			p.Col.ReduceInto(p.W, p.ColRank(t), partial, out)
		} else {
			p.Col.ReduceInto(p.W, p.ColRank(t), partial, nil)
		}
	}
	ws.Put(aPanel, partial)
	return out
}

// bcastRowInto broadcasts the iteration-t A panel along the grid row: the
// owning processor shares its resident block directly (no copy), everyone
// else receives into the reusable panel.
func bcastRowInto(p *mesh.Proc, t int, a, panel *tensor.Matrix) *tensor.Matrix {
	if p.J == t {
		return p.Row.BroadcastInto(p.W, p.RowRank(t), a, a)
	}
	return p.Row.BroadcastInto(p.W, p.RowRank(t), nil, panel)
}

// bcastColInto is bcastRowInto for B panels down the grid column.
func bcastColInto(p *mesh.Proc, t int, b, panel *tensor.Matrix) *tensor.Matrix {
	if p.I == t {
		return p.Col.BroadcastInto(p.W, p.ColRank(t), b, b)
	}
	return p.Col.BroadcastInto(p.W, p.ColRank(t), nil, panel)
}
