package megatron

import (
	"repro/internal/compute"
	"repro/internal/plan"
)

// PlanAlgo describes Megatron-LM to the auto-parallelism planner: [p]
// layouts for every p that divides the head count, an analytic cost
// mirroring the schedule Block.Forward/Backward run (two activation
// all-reduces per layer per direction, everything else local on the fully
// replicated activation), and the Eq. 9-style per-rank memory — the
// replicated activations that make the family cheap to communicate and
// expensive to hold.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "megatron",
		Grids:  megatronGrids,
		Cost:   megatronCost,
		Memory: megatronMemory,
	}
}

// megatronGrids enumerates [p] for every p ≤ budget dividing the head
// count (heads % p == 0 implies every weight split the layers perform).
func megatronGrids(w plan.Workload, budget int) []plan.Grid {
	var out []plan.Grid
	for p := 1; p <= budget && p <= w.Heads; p++ {
		if w.Heads%p == 0 {
			out = append(out, plan.Grid{Ranks: p})
		}
	}
	return out
}

func mbytes(elems float64) int64 { return int64(plan.BytesPerElem * elems) }

// megatronCoster adds the family's one collective to the shared
// accumulator; the tensor-parallel group spans ranks [0, p), so it pays
// inter-node rates as soon as p exceeds the node size.
type megatronCoster struct {
	plan.Coster
	p     int
	inter bool
}

func (c *megatronCoster) allReduce(elems float64) {
	c.Comm += c.Model.AllReduceSeconds(c.p, mbytes(elems), c.inter)
}

// forwardLayer prices one Block.Forward on the replicated activation of R
// rows: QKV (column-parallel, local), local attention over heads/p heads,
// the output projection's forward all-reduce, the MLP's fc1 (local, GELU)
// and fc2 (all-reduce), with replicated layer norms and residual adds.
func (c *megatronCoster) forwardLayer(R, h, hp, s, dh, hl float64) {
	c.GEMM(R, 3*hp, h) // QKV
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.Flops(R / s * hl * (4*s*s*dh + compute.FlopsPerSoftmax*s*s))
	c.GEMM(R, h, hp) // projection partial
	c.allReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd) // projection bias
	c.Flops(R * h * compute.FlopsPerAdd) // residual
	c.Flops(R * h * (compute.FlopsPerNorm + 2))
	c.GEMM(R, 4*hp, h) // fc1
	c.Flops(R * 4 * hp * (compute.FlopsPerAdd + compute.FlopsPerGELU))
	c.GEMM(R, h, 4*hp) // fc2 partial
	c.allReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.Flops(R * h * (compute.FlopsPerNorm + 2))
}

// backwardLayer prices one Block.Backward: the row-parallel linears
// propagate without communication, the column-parallel linears all-reduce
// the replicated input gradient — again two all-reduces per layer.
func (c *megatronCoster) backwardLayer(R, h, hp, s, dh, hl float64) {
	c.Flops(R * h * (compute.FlopsPerNorm + 2)) // ln2
	// fc2 (row-parallel): dW, bias sums, local dx.
	c.GEMM(4*hp, h, R)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.GEMM(R, 4*hp, h)
	// fc1 (column-parallel): GELU gradient, dW, bias sums, dx all-reduce.
	c.Flops(R * 4 * hp * (compute.FlopsPerGELU + compute.FlopsPerAdd))
	c.GEMM(h, 4*hp, R)
	c.Flops(R * 4 * hp * compute.FlopsPerAdd)
	c.GEMM(R, h, 4*hp)
	c.allReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd) // residual
	c.Flops(R * h * (compute.FlopsPerNorm + 2))
	// Projection (row-parallel).
	c.GEMM(hp, h, R)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.GEMM(R, hp, h)
	c.Flops(R / s * hl * (8*s*s*dh + compute.FlopsPerSoftmax*s*s))
	// QKV (column-parallel).
	c.GEMM(h, 3*hp, R)
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.GEMM(R, h, 3*hp)
	c.allReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd)
}

// megatronCost prices a workload on one [p] layout.
func megatronCost(w plan.Workload, g plan.Grid, t plan.Topology) plan.Breakdown {
	p := g.Ranks
	R := float64(w.Tokens())
	h := float64(w.Hidden)
	hp := h / float64(p)
	s := float64(w.SeqLen)
	dh := h / float64(w.Heads)
	hl := float64(w.Heads) / float64(p)
	inter := t.SpansNodes(0, p-1)

	fwd := &megatronCoster{Coster: plan.Coster{Model: t.Cost}, p: p, inter: inter}
	fwd.forwardLayer(R, h, hp, s, dh, hl)
	bwd := &megatronCoster{Coster: plan.Coster{Model: t.Cost}, p: p, inter: inter}
	bwd.backwardLayer(R, h, hp, s, dh, hl)
	return plan.Assemble(w, &fwd.Coster, &bwd.Coster, 0)
}

// megatronMemory estimates the bytes one rank holds across a training
// step: the sharded parameters with gradients, and the activation set the
// backward pass retains — four full-width replicated copies per layer plus
// the sharded attention/MLP intermediates and softmax probabilities, which
// is what Eq. 9 charges the family for.
func megatronMemory(w plan.Workload, g plan.Grid) int64 {
	p := float64(g.Ranks)
	R := float64(w.Tokens())
	h := float64(w.Hidden)
	hp := h / p
	s := float64(w.SeqLen)
	hl := float64(w.Heads) / p
	L := float64(w.Layers)
	weights := 12*h*hp + 7*hp + 2*h // shards + column biases + replicated row biases
	probs := float64(w.Batch) * hl * s * s
	acts := R*(4*h+12*hp) + probs
	io := 2 * R * h
	return mbytes(L*(2*weights+acts) + io)
}
