// Package summa implements the Scalable Universal Matrix Multiplication
// Algorithm (van de Geijn & Watts, Algorithm 2 of the paper) on one q×q
// layer of a mesh, in the three variants tensor-parallel Transformers need:
//
//	MulAB  : C = A·B    (broadcast A panels along rows, B panels along columns)
//	MulABT : C = A·Bᵀ   (broadcast B panels along columns, reduce along rows)
//	MulATB : C = Aᵀ·B   (broadcast A panels along rows, reduce along columns)
//
// The two transposed variants implement the paper's Eq. 3 gradients
// A' = C'·Bᵀ and B' = Aᵀ·C'. All three work on a single depth layer of a
// Tesseract mesh; the tesseract package composes them across layers. With an
// A-distributed left operand (block rows h = i + k·q) each layer simply sees
// its own q×q slice, so the same kernels serve both the 2-D baseline
// (Optimus) and each Tesseract layer.
//
// # Pipelining
//
// All three kernels run double-buffered: two receive panels per operand,
// iteration t's GEMM overlapped with the nonblocking prefetch broadcast of
// panel t+1, and — in the reduce variants — with the previous iteration's
// partial reduce still in flight (two partial buffers alternate, each
// overwritten only after the reduce that read it has been waited). The
// dist runtime keeps nonblocking collectives bit-identical to their
// blocking forms and pairs them in per-worker issue order, so the
// pipelined schedules produce exactly the bits of the blocking schedules
// kept in blocking_test.go — TestPipelinedMatchesBlockingBitwise holds the
// kernels to that.
package summa

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
)

// MulAB computes the SUMMA product C = A·B over the caller's layer.
// a is the caller's A block (any row count), b the caller's B block; the
// result has a.Rows × b.Cols and the same distribution as A.
//
// The returned matrix is drawn from the calling worker's workspace: the
// caller owns it and is responsible for recycling it (Put once its last
// reader is done, or the step-boundary ReleaseAll). Two receive panels per
// operand are reused across all q broadcast iterations, so a steady-state
// call allocates nothing.
func MulAB(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	return MulABEpi(p, a, b, Epilogue{})
}

// Epilogue is an optional fused write-back for MulABEpi: after the final
// SUMMA iteration has finished accumulating a C row band, Bias (a local
// [1, C.Cols] row vector) is added to it and, when Act is non-nil, GELU of
// the row is written into Act while C keeps the pre-activation. Because the
// epilogue runs only after a row's last accumulation step, the result is
// bitwise identical to running the separate bias/GELU passes after MulAB —
// the per-element operation order is unchanged (see tensor's fusion
// contract). Both fields may be nil; both must be workspace buffers or
// parameters the caller owns.
type Epilogue struct {
	Bias *tensor.Matrix
	Act  *tensor.Matrix
}

// MulABEpi is MulAB with a fused epilogue applied inside the final
// iteration's GEMM write-back, saving the extra memory passes a linear
// layer's bias add and activation would otherwise spend on C.
func MulABEpi(p *mesh.Proc, a, b *tensor.Matrix, epi Epilogue) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("summa: MulAB local blocks %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	ws := p.W.Workspace()
	c := ws.GetMatch(a.Rows, b.Cols, a.Phantom() || b.Phantom())
	var aPanels, bPanels [2]*tensor.Matrix
	for i := range aPanels {
		aPanels[i] = ws.GetUninitMatch(a.Rows, a.Cols, a.Phantom())
		bPanels[i] = ws.GetUninitMatch(b.Rows, b.Cols, b.Phantom())
	}
	var hA, hB [2]dist.Handle
	var aps, bps [2]*tensor.Matrix
	hA[0], aps[0] = prefetchRowPanel(p, 0, a, aPanels[0])
	hB[0], bps[0] = prefetchColPanel(p, 0, b, bPanels[0])
	for t := 0; t < p.Shape.Q; t++ {
		cur := t % 2
		if nt := t + 1; nt < p.Shape.Q {
			hA[nt%2], aps[nt%2] = prefetchRowPanel(p, nt, a, aPanels[nt%2])
			hB[nt%2], bps[nt%2] = prefetchColPanel(p, nt, b, bPanels[nt%2])
		}
		hA[cur].Wait()
		hB[cur].Wait()
		if bps[cur] == nil {
			bps[cur] = hB[cur].Lent()
		}
		switch {
		case t < p.Shape.Q-1 || (epi.Bias == nil && epi.Act == nil):
			compute.MatMulInto(p.W, c, aps[cur], bps[cur])
		case epi.Act != nil:
			compute.MatMulBiasGELUInto(p.W, epi.Act, c, aps[cur], bps[cur], epi.Bias)
		default:
			compute.MatMulBiasInto(p.W, c, aps[cur], bps[cur], epi.Bias)
		}
	}
	ws.Put(aPanels[0], aPanels[1], bPanels[0], bPanels[1])
	return c
}

// MulABT computes C = A·Bᵀ where a is A-distributed (the caller's block of
// A, e.g. an output gradient) and b is B-distributed (the caller's parameter
// block). The result is A-distributed with b.Rows columns per block:
//
//	C[h, j] = Σ_t A[h, t]·B[j, t]ᵀ
//
// Iteration j broadcasts B[j, t] down each grid column t, multiplies against
// the resident A block, and reduces the partials across the row to processor
// (i, j) — the schedule described in §3.1 of the paper, double-buffered so
// iteration j's GEMM overlaps both the prefetch of panel j+1 and the reduce
// of partial j−1. A partial buffer is only overwritten after the reduce that
// consumed it has been waited, and the returned matrix is a workspace buffer
// owned by the caller.
func MulABT(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("summa: MulABT local blocks %dx%d by %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	ws := p.W.Workspace()
	ph := a.Phantom() || b.Phantom()
	var bPanels, partials [2]*tensor.Matrix
	for i := range bPanels {
		bPanels[i] = ws.GetUninitMatch(b.Rows, b.Cols, b.Phantom())
		partials[i] = ws.GetUninitMatch(a.Rows, b.Rows, ph)
	}
	var hB, hR [2]dist.Handle
	var bps [2]*tensor.Matrix
	var reducing [2]bool
	var out *tensor.Matrix
	hB[0], bps[0] = prefetchColOwnerRow(p, 0, b, bPanels[0])
	for j := 0; j < p.Shape.Q; j++ {
		cur := j % 2
		if nj := j + 1; nj < p.Shape.Q {
			hB[nj%2], bps[nj%2] = prefetchColOwnerRow(p, nj, b, bPanels[nj%2])
		}
		hB[cur].Wait()
		if reducing[cur] {
			hR[cur].Wait() // reduce j−2 done: its partial is ours again
			reducing[cur] = false
		}
		compute.MatMulNTInto(p.W, partials[cur], a, bps[cur])
		if p.J == j {
			out = ws.GetUninitMatch(a.Rows, b.Rows, ph)
			hR[cur] = p.Row.IReduceInto(p.W, p.RowRank(j), partials[cur], out)
		} else {
			hR[cur] = p.Row.IReduceInto(p.W, p.RowRank(j), partials[cur], nil)
		}
		reducing[cur] = true
	}
	for i := range hR {
		if reducing[i] {
			hR[i].Wait()
		}
	}
	ws.Put(bPanels[0], bPanels[1], partials[0], partials[1])
	return out
}

// MulATB computes C = Aᵀ·B where both a and b are A-distributed blocks with
// equal row counts (activations and output gradients). The result is
// B-distributed:
//
//	C[t, j] = Σ_h A[h, t]ᵀ·B[h, j]
//
// Iteration t broadcasts the A[·, t] panel along each row, multiplies
// against the resident right operand, and reduces the partials down the
// column to processor (t, j). On a Tesseract mesh the caller must still
// all-reduce the result across the depth group (the paper's §3.1 rule for
// B'); this function handles one layer. The double-buffered panels,
// partial-reuse discipline and caller-owned workspace result follow MulABT.
func MulATB(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("summa: MulATB local blocks %dx%dᵀ by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	ws := p.W.Workspace()
	ph := a.Phantom() || b.Phantom()
	var aPanels, partials [2]*tensor.Matrix
	for i := range aPanels {
		aPanels[i] = ws.GetUninitMatch(a.Rows, a.Cols, a.Phantom())
		partials[i] = ws.GetUninitMatch(a.Cols, b.Cols, ph)
	}
	var hA, hR [2]dist.Handle
	var aps [2]*tensor.Matrix
	var reducing [2]bool
	var out *tensor.Matrix
	hA[0], aps[0] = prefetchRowPanel(p, 0, a, aPanels[0])
	for t := 0; t < p.Shape.Q; t++ {
		cur := t % 2
		if nt := t + 1; nt < p.Shape.Q {
			hA[nt%2], aps[nt%2] = prefetchRowPanel(p, nt, a, aPanels[nt%2])
		}
		hA[cur].Wait()
		if reducing[cur] {
			hR[cur].Wait()
			reducing[cur] = false
		}
		partials[cur].Zero() // the TN kernel accumulates; start each partial fresh
		compute.MatMulTNInto(p.W, partials[cur], aps[cur], b)
		if p.I == t {
			out = ws.GetUninitMatch(a.Cols, b.Cols, ph)
			hR[cur] = p.Col.IReduceInto(p.W, p.ColRank(t), partials[cur], out)
		} else {
			hR[cur] = p.Col.IReduceInto(p.W, p.ColRank(t), partials[cur], nil)
		}
		reducing[cur] = true
	}
	for i := range hR {
		if reducing[i] {
			hR[i].Wait()
		}
	}
	ws.Put(aPanels[0], aPanels[1], partials[0], partials[1])
	return out
}

// prefetchRowPanel issues the iteration-t A-panel broadcast along the grid
// row without blocking: the owning processor lends its resident block
// (payload doubles as destination, no copy), everyone else receives into the
// given panel. Returns the handle and the buffer that will hold the panel
// once the handle is waited.
func prefetchRowPanel(p *mesh.Proc, t int, a, panel *tensor.Matrix) (dist.Handle, *tensor.Matrix) {
	if p.J == t {
		return p.Row.IBroadcastInto(p.W, p.RowRank(t), a, a), a
	}
	return p.Row.IBroadcastInto(p.W, p.RowRank(t), nil, panel), panel
}

// prefetchColPanel is prefetchRowPanel for B panels down the grid column
// (owner at grid row t of this column). A b that comes packed (tensor.PackNN)
// is a weight block its caller vouches nobody writes before the Run ends —
// every rank of the column passes its own block that way or none does — so
// the owner lends it and the others multiply against it where it lies: the
// returned buffer is nil and the panel is the handle's Lent once waited.
func prefetchColPanel(p *mesh.Proc, t int, b, panel *tensor.Matrix) (dist.Handle, *tensor.Matrix) {
	if b.Packed() {
		if p.I != t {
			b = nil
		}
		return p.Col.IBroadcastLend(p.W, p.ColRank(t), b), nil
	}
	if p.I == t {
		return p.Col.IBroadcastInto(p.W, p.ColRank(t), b, b), b
	}
	return p.Col.IBroadcastInto(p.W, p.ColRank(t), nil, panel), panel
}

// prefetchColOwnerRow issues MulABT's iteration-j broadcast of B[j, J] down
// the column: the owner sits at grid row j.
func prefetchColOwnerRow(p *mesh.Proc, j int, b, panel *tensor.Matrix) (dist.Handle, *tensor.Matrix) {
	if p.I == j {
		return p.Col.IBroadcastInto(p.W, p.ColRank(j), b, b), b
	}
	return p.Col.IBroadcastInto(p.W, p.ColRank(j), nil, panel), panel
}

// DistributeB slices a global matrix into the q×q B-distribution of the
// caller's layer: processor (i, j) receives block (i, j) of a q×q grid.
// Every caller passes the same global matrix (deterministic replication, as
// used for parameter initialisation).
func DistributeB(p *mesh.Proc, global *tensor.Matrix) *tensor.Matrix {
	q := p.Shape.Q
	if global.Rows%q != 0 || global.Cols%q != 0 {
		panic(fmt.Sprintf("summa: cannot B-distribute %dx%d over q=%d", global.Rows, global.Cols, q))
	}
	br, bc := global.Rows/q, global.Cols/q
	return global.SubMatrix(p.I*br, p.J*bc, br, bc)
}

// DistributeA slices a global matrix into the Tesseract A-distribution:
// processor (i, j, k) receives block (h, j) with h = i + k·q of a (d·q)×q
// grid (Figure 4a).
func DistributeA(p *mesh.Proc, global *tensor.Matrix) *tensor.Matrix {
	q, d := p.Shape.Q, p.Shape.D
	if global.Rows%(d*q) != 0 || global.Cols%q != 0 {
		panic(fmt.Sprintf("summa: cannot A-distribute %dx%d over q=%d d=%d", global.Rows, global.Cols, q, d))
	}
	br, bc := global.Rows/(d*q), global.Cols/q
	return global.SubMatrix(p.BlockRow()*br, p.J*bc, br, bc)
}

// CollectA reassembles an A-distributed matrix on every processor via
// all-gathers along the row (columns of the matrix) and the slab (block
// rows). It is used by tests and by redundantly-computed model heads; the
// caller owns the returned matrix.
func CollectA(p *mesh.Proc, local *tensor.Matrix) *tensor.Matrix {
	// Slab order is h = i + k·q ascending, i.e. exactly block-row order.
	return collect(p, p.Slab, local)
}

// CollectB reassembles a B-distributed matrix on every processor of a layer.
func CollectB(p *mesh.Proc, local *tensor.Matrix) *tensor.Matrix {
	return collect(p, p.Col, local)
}

// collect gathers local side by side along the grid row, then stacks the
// wide blocks over the given group.
func collect(p *mesh.Proc, stack *dist.Group, local *tensor.Matrix) *tensor.Matrix {
	wide := newLike(local, local.Rows, p.Row.Size()*local.Cols)
	p.Row.AllGatherInto(p.W, local, wide)
	return stack.AllGatherInto(p.W, wide, newLike(wide, stack.Size()*wide.Rows, wide.Cols))
}

// newLike allocates a [rows, cols] matrix that is phantom exactly when m is.
func newLike(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m.Phantom() {
		return tensor.NewPhantom(rows, cols)
	}
	return tensor.New(rows, cols)
}
