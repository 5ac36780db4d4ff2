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
// (Optimus) and each Tesseract layer. The kernels take blocks their caller
// already holds: where a block sits is said once, by the tesseract
// family's parallel.View (A blocks) and the parallel.Weight its linears cut
// (B blocks).
//
// # Pipelining
//
// All three kernels run double-buffered: iteration t's GEMM overlapped with
// the nonblocking prefetch broadcast of panel t+1, and — in the reduce
// variants — with the previous iteration's partial reduce still in flight.
// Buffers alternate by the parity of t, each reused only after the
// collective that read it is waited, and exist only for a parity class with
// an iteration the rank does not own: it lends its own block as that panel
// and, as that reduce's root, reduces its partial in place in the result.
// Every buffer goes back before the call returns, so a call's real ones are
// views of the worker workspace's transient store (tensor.Workspace.Reserve),
// reserved at the call's start for exactly what it receives: the store holds
// the largest call's panels, not one buffer per panel shape.
// The dist runtime keeps nonblocking collectives bit-identical to their
// blocking forms and pairs them in per-worker issue order, so the pipelined
// schedules produce exactly the bits of the blocking schedules kept in
// blocking_test.go — TestPipelinedMatchesBlockingBitwise holds the kernels to
// that.
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
// reader is done, or the step-boundary ReleaseAll). The receive panels are
// reused across all q broadcast iterations, so a steady-state call
// allocates nothing.
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
	var bScratch scratch
	if !b.Packed() { // a packed b is lent down the column, never received
		bScratch = newScratch(p.Shape.Q, p.I, b.Rows, b.Cols, b.Phantom())
	}
	aPanels, bPanels := checkout(ws, newScratch(p.Shape.Q, p.J, a.Rows, a.Cols, a.Phantom()), bScratch)
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
// of partial j−1; the root iteration j = J reduces its partial in place in
// the result, a workspace buffer owned by the caller.
func MulABT(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("summa: MulABT local blocks %dx%d by %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	ws := p.W.Workspace()
	ph := a.Phantom() || b.Phantom()
	bPanels, partials := checkout(ws,
		newScratch(p.Shape.Q, p.I, b.Rows, b.Cols, b.Phantom()),
		newScratch(p.Shape.Q, p.J, a.Rows, b.Rows, ph))
	var hB, hR [2]dist.Handle
	var bps [2]*tensor.Matrix
	var reducing [2]bool
	var out *tensor.Matrix
	hB[0], bps[0] = prefetchColPanel(p, 0, b, bPanels[0])
	for j := 0; j < p.Shape.Q; j++ {
		cur := j % 2
		if nj := j + 1; nj < p.Shape.Q {
			hB[nj%2], bps[nj%2] = prefetchColPanel(p, nj, b, bPanels[nj%2])
		}
		hB[cur].Wait()
		if reducing[cur] {
			hR[cur].Wait() // reduce j−2 done: its partial is ours again
			reducing[cur] = false
		}
		partial, root := partials[cur], (*tensor.Matrix)(nil)
		if p.J == j {
			out = ws.GetUninitMatch(a.Rows, b.Rows, ph)
			partial, root = out, out
		}
		compute.MatMulNTInto(p.W, partial, a, bps[cur])
		hR[cur] = p.Row.IReduceInto(p.W, p.RowRank(j), partial, root)
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

// MulATB computes C = Aᵀ·B into dst (overwriting it), where a and b are
// A-distributed blocks with equal row counts (activations and output
// gradients) and dst is the caller's B-distributed block, a weight's Grad:
//
//	C[t, j] = Σ_h A[h, t]ᵀ·B[h, j]
//
// Iteration t broadcasts the A[·, t] panel along each row, multiplies
// against the resident right operand, and reduces the partials down the
// column to processor (t, j). On a Tesseract mesh the caller must still
// all-reduce the result across the depth group (the paper's §3.1 rule for
// B'); this function handles one layer. The double-buffered panels, the
// partial-reuse discipline and the in-place root iteration follow MulABT.
func MulATB(p *mesh.Proc, a, b, dst *tensor.Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("summa: MulATB local blocks %dx%dᵀ by %dx%d into %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	ws := p.W.Workspace()
	aPanels, partials := checkout(ws,
		newScratch(p.Shape.Q, p.J, a.Rows, a.Cols, a.Phantom()),
		newScratch(p.Shape.Q, p.I, a.Cols, b.Cols, a.Phantom() || b.Phantom()))
	var hA, hR [2]dist.Handle
	var aps [2]*tensor.Matrix
	var reducing [2]bool
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
		partial, root := partials[cur], (*tensor.Matrix)(nil)
		if p.I == t {
			partial, root = dst, dst
		}
		partial.Zero() // the TN kernel accumulates; start each partial fresh
		compute.MatMulTNInto(p.W, partial, aps[cur], b)
		hR[cur] = p.Col.IReduceInto(p.W, p.ColRank(t), partial, root)
		reducing[cur] = true
	}
	for i := range hR {
		if reducing[i] {
			hR[i].Wait()
		}
	}
	ws.Put(aPanels[0], aPanels[1], partials[0], partials[1])
}

// scratch is one operand's call-scoped buffers: a [rows, cols] buffer for
// each parity class of the q iterations that holds one other than own (a
// class of own alone needs none). The zero scratch has no buffers.
type scratch struct {
	class      [2]bool
	rows, cols int
	phantom    bool
}

func newScratch(q, own, rows, cols int, phantom bool) scratch {
	s := scratch{rows: rows, cols: cols, phantom: phantom}
	for t := 0; t < q; t++ {
		s.class[t%2] = s.class[t%2] || t != own
	}
	return s
}

// elems is what s takes of the transient store; phantom buffers are
// headers and take none.
func (s scratch) elems() int {
	if s.phantom {
		return 0
	}
	n := 0
	for _, in := range s.class {
		if in {
			n += s.rows * s.cols
		}
	}
	return n
}

func (s scratch) get(ws *tensor.Workspace) [2]*tensor.Matrix {
	var bufs [2]*tensor.Matrix
	for i, in := range s.class {
		if in {
			bufs[i] = ws.GetTransient(s.rows, s.cols, s.phantom)
		}
	}
	return bufs
}

// checkout reserves the transient store for one call's two operands'
// scratch and checks both out, x's first; the call Puts every buffer before
// it returns.
func checkout(ws *tensor.Workspace, x, y scratch) (xb, yb [2]*tensor.Matrix) {
	ws.Reserve(x.elems() + y.elems())
	return x.get(ws), y.get(ws)
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
// (owner at grid row t of this column), for MulAB and MulABT alike. A b that
// comes packed (tensor.PackNN; only a forward-only run's MulAB operand does)
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
