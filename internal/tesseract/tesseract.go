// Package tesseract implements the paper's contribution: 2.5-D tensor
// parallelism for matrix multiplication and Transformer layers on a
// [q, q, d] processor mesh (Algorithm 3, §3).
//
// Layout (Figure 4): an activation matrix A ∈ [a, b] is split into d·q²
// blocks of [a/(dq), b/q]; processor (i, j, k) holds block row h = i + k·q,
// block column j. A parameter matrix B ∈ [b, c] is split into q² blocks of
// [b/q, c/q], with one replica per depth layer. Each depth layer runs an
// independent SUMMA over its q×q grid; parameter gradients are all-reduced
// across the depth fibre so the replicas stay identical (§3.1).
//
// Setting d = 1 recovers the 2-D SUMMA scheme (Optimus); d = q is the 3-D
// special case. Setting q = d = 1 gives a serial execution, which the weak
// scaling experiment's single-GPU row uses.
package tesseract

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/summa"
	"repro/internal/tensor"
)

// Proc is one processor's view of a Tesseract mesh. It embeds the mesh
// bookkeeping (coordinates and communicator groups) and carries the
// processor's queue of in-flight gradient synchronisations.
type Proc struct {
	*mesh.Proc

	// pending holds the depth all-reduces launched by the layers' Backward
	// passes (DDP-style bucketing: one nonblocking all-reduce per parameter
	// shard, issued the moment the shard's gradient is ready) until
	// DrainGradients waits them and folds the results into the parameters.
	pending []pendingGrad

	// forwardOnly is set for the length of a Run that only runs forwards
	// (ForwardOnly); packs holds, per weight block this rank owns, the
	// packed view it lends down its column inside such a Run.
	forwardOnly bool
	packs       map[*tensor.Matrix]*pack
}

// pack is one weight block's strip-packed view and whether it was filled in
// the current forward-only Run.
type pack struct {
	view  tensor.Matrix
	fresh bool
}

// ForwardOnly opens (on) or closes a forward-only scope on this rank. The
// caller promises that between opening it and the return of the cluster Run
// it was opened in, no rank of the mesh writes a parameter: the Run runs
// forwards and nothing else. Inside the scope a linear's weight panels are
// not copied down the column and packed again by every receiver on every
// batch: each rank packs its own block once (tensor.PackNN), on first use in
// this scope — so whatever trained, re-sharded or restored the weights since
// the previous scope is picked up, with no version to keep — and the column
// multiplies against the owner's packed block where it lies (summa's lending
// prefetch). Every simulated second, message and byte is the copying
// schedule's. Training must stay outside: an owner's optimiser step is not
// ordered after a column peer's last backward GEMM.
func (p *Proc) ForwardOnly(on bool) {
	p.forwardOnly = on
	for _, pk := range p.packs {
		pk.fresh = false
	}
}

// rightOperand returns the form of weight block w a forward multiplies
// against: w itself, or inside a forward-only scope its packed view.
func (p *Proc) rightOperand(w *tensor.Matrix) *tensor.Matrix {
	if !p.forwardOnly || w.Phantom() {
		return w
	}
	pk := p.packs[w]
	if pk == nil {
		if p.packs == nil {
			p.packs = make(map[*tensor.Matrix]*pack)
		}
		pk = new(pack)
		p.packs[w] = pk
	}
	if !pk.fresh {
		tensor.PackNN(&pk.view, w)
		pk.fresh = true
	}
	return &pk.view
}

// pendingGrad is one queued gradient synchronisation: wait h, accumulate
// buf into param.Grad, recycle buf.
type pendingGrad struct {
	param *nn.Param
	buf   *tensor.Matrix
	h     dist.Handle
}

// QueueGradSync launches the §3.1 depth all-reduce for one parameter
// shard's freshly computed layer-partial gradient without blocking: the
// reduction runs while the backward pass continues into earlier layers, and
// DrainGradients later folds the finished sum into param.Grad and recycles
// buf (a workspace buffer whose ownership transfers to the queue). On a
// depth-1 mesh the sum is the partial itself, so the gradient is folded in
// immediately — callers never need to special-case d = 1, but they must
// call DrainGradients before reading gradients on deeper meshes.
func (p *Proc) QueueGradSync(param *nn.Param, buf *tensor.Matrix) {
	if p.Depth.Size() == 1 {
		param.AccumGrad(buf)
		p.W.Workspace().Put(buf)
		return
	}
	h := p.Depth.IAllReduceInto(p.W, buf, buf)
	p.pending = append(p.pending, pendingGrad{param: param, buf: buf, h: h})
}

// DrainGradients completes every queued gradient synchronisation, in issue
// order: each handle is waited, the reduced gradient accumulated into its
// parameter, and the buffer recycled. Call it after the backward pass and
// before the optimiser reads gradients (or before EndStep). It is
// idempotent and cheap when nothing is pending.
func (p *Proc) DrainGradients() {
	ws := p.W.Workspace()
	for i := range p.pending {
		pg := &p.pending[i]
		pg.h.Wait()
		pg.param.AccumGrad(pg.buf)
		ws.Put(pg.buf)
		pg.param, pg.buf = nil, nil
	}
	p.pending = p.pending[:0]
}

// NewProc attaches the calling worker to a [q, q, d] mesh based at rank 0.
func NewProc(w *dist.Worker, q, d int) *Proc {
	return NewProcAt(w, mesh.Shape{Q: q, D: d})
}

// NewProcAt attaches the calling worker to an arbitrary mesh shape: any
// base rank on a cluster the mesh shares with others.
func NewProcAt(w *dist.Worker, s mesh.Shape) *Proc {
	return &Proc{Proc: mesh.NewProc(w, s)}
}

// MatMulAB computes C = A·B (Algorithm 3). a is the caller's A-distributed
// block, b the caller's B-distributed parameter block; the result is
// A-distributed like a.
func (p *Proc) MatMulAB(a, b *tensor.Matrix) *tensor.Matrix {
	return summa.MulAB(p.Proc, a, b)
}

// MatMulABEpi is MatMulAB with a fused bias/GELU epilogue applied inside
// the final SUMMA iteration's write-back (bitwise identical to the separate
// passes — see summa.Epilogue).
func (p *Proc) MatMulABEpi(a, b *tensor.Matrix, epi summa.Epilogue) *tensor.Matrix {
	return summa.MulABEpi(p.Proc, a, b, epi)
}

// MatMulABT computes C = A·Bᵀ (the activation-gradient product A' = C'·Bᵀ of
// Eq. 3). The result is A-distributed.
func (p *Proc) MatMulABT(a, b *tensor.Matrix) *tensor.Matrix {
	return summa.MulABT(p.Proc, a, b)
}

// MatMulATB computes C = Aᵀ·B (the parameter-gradient product B' = Aᵀ·C' of
// Eq. 3) and all-reduces the result across the depth fibre, per §3.1: each
// layer contributes the partial sum over its own block rows, and the d
// replicas must agree. The depth all-reduce runs in place on the layer
// partial, so the returned matrix is the same caller-owned workspace buffer
// summa handed back.
func (p *Proc) MatMulATB(a, b *tensor.Matrix) *tensor.Matrix {
	partial := summa.MulATB(p.Proc, a, b)
	return p.Depth.AllReduceInto(p.W, partial, partial)
}

// DistributeA slices a replicated global activation matrix into this
// processor's A block (Figure 4a).
func (p *Proc) DistributeA(global *tensor.Matrix) *tensor.Matrix {
	return summa.DistributeA(p.Proc, global)
}

// DistributeB slices a replicated global parameter matrix into this
// processor's B block (Figure 4b); every depth layer receives a replica.
func (p *Proc) DistributeB(global *tensor.Matrix) *tensor.Matrix {
	return summa.DistributeB(p.Proc, global)
}

// CollectA reassembles an A-distributed matrix on every processor
// (Figure 4c). Intended for tests, model heads and example programs; the
// training loop itself never materialises global activations.
func (p *Proc) CollectA(local *tensor.Matrix) *tensor.Matrix {
	return summa.CollectA(p.Proc, local)
}

// CollectB reassembles a B-distributed matrix on every processor of the
// caller's layer.
func (p *Proc) CollectB(local *tensor.Matrix) *tensor.Matrix {
	return summa.CollectB(p.Proc, local)
}

// ABlockShape returns the local A-block shape for a global [rows, cols]
// activation matrix.
func (p *Proc) ABlockShape(rows, cols int) (int, int) {
	q, d := p.Shape.Q, p.Shape.D
	if rows%(q*d) != 0 || cols%q != 0 {
		panic(fmt.Sprintf("tesseract: global %dx%d not divisible by mesh [%d,%d,%d]", rows, cols, q, q, d))
	}
	return rows / (q * d), cols / q
}

// BBlockShape returns the local B-block shape for a global [rows, cols]
// parameter matrix.
func (p *Proc) BBlockShape(rows, cols int) (int, int) {
	q := p.Shape.Q
	if rows%q != 0 || cols%q != 0 {
		panic(fmt.Sprintf("tesseract: parameter %dx%d not divisible by q=%d", rows, cols, q))
	}
	return rows / q, cols / q
}
