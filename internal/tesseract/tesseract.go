// Package tesseract implements the paper's contribution: 2.5-D tensor
// parallelism for matrix multiplication and Transformer layers on a
// [q, q, d] processor mesh (Algorithm 3, §3).
//
// Layout (Figure 4): an activation matrix A ∈ [a, b] is split into d·q²
// blocks of [a/(dq), b/q]; processor (i, j, k) holds block row h = i + k·q,
// block column j. A parameter matrix B ∈ [b, c] is split into q² blocks of
// [b/q, c/q], with one replica per depth layer. Each depth layer runs an
// independent SUMMA over its q×q grid; parameter gradients land
// (parallel.Grads.Land) summed across the depth fibre so the replicas stay
// identical (§3.1). Where each block sits is said once: the family's
// parallel.View places activations (Slice, Distribute, Collect) and
// parallel.Weight draws each weight block alone where Linear is built,
// recording the rectangle its checkpoint slot reads. The layers call summa
// directly; the Proc's MatMul methods are Algorithm 3 on blocks a caller
// already holds.
//
// Setting d = 1 recovers the 2-D SUMMA scheme (Optimus); d = q is the 3-D
// special case. Setting q = d = 1 gives a serial execution, which the weak
// scaling experiment's single-GPU row uses.
package tesseract

import (
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/parallel"
	"repro/internal/summa"
	"repro/internal/tensor"
)

// Proc is one processor's view of a Tesseract mesh. It embeds the mesh
// bookkeeping (coordinates and communicator groups) and the Grads its
// layers' gradients land on.
type Proc struct {
	*mesh.Proc
	parallel.Grads

	// sum is the group a weight shard's partial gradient sums over (§3.1):
	// the depth fibre, or nil on a depth-1 mesh, where the partial is the
	// gradient.
	sum *dist.Group

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

// NewProc attaches the calling worker to the [q, q, d] mesh on ranks
// [0, d·q²).
func NewProc(w *dist.Worker, q, d int) *Proc {
	p := &Proc{Proc: mesh.NewProc(w, mesh.Shape{Q: q, D: d}), Grads: parallel.NewGrads(w)}
	if p.Depth.Size() > 1 {
		p.sum = p.Depth
	}
	return p
}

// MatMulAB computes C = A·B (Algorithm 3). a is the caller's A-distributed
// block, b the caller's B-distributed parameter block; the result is
// A-distributed like a.
func (p *Proc) MatMulAB(a, b *tensor.Matrix) *tensor.Matrix {
	return summa.MulAB(p.Proc, a, b)
}

// MatMulABT computes C = A·Bᵀ (the activation-gradient product A' = C'·Bᵀ of
// Eq. 3). The result is A-distributed.
func (p *Proc) MatMulABT(a, b *tensor.Matrix) *tensor.Matrix {
	return summa.MulABT(p.Proc, a, b)
}

// MatMulATB computes C = Aᵀ·B (the parameter-gradient product B' = Aᵀ·C' of
// Eq. 3) and all-reduces the result across the depth fibre, per §3.1: each
// layer contributes the partial sum over its own block rows, and the d
// replicas must agree. The layer's product and the depth all-reduce both run
// in place in one workspace buffer, which the caller owns.
func (p *Proc) MatMulATB(a, b *tensor.Matrix) *tensor.Matrix {
	c := p.W.Workspace().GetUninitMatch(a.Cols, b.Cols, a.Phantom() || b.Phantom())
	summa.MulATB(p.Proc, a, b, c)
	return p.Depth.AllReduceInto(p.W, c, c)
}
