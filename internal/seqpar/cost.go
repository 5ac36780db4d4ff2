package seqpar

import (
	"repro/internal/compute"
	"repro/internal/plan"
)

// PlanAlgo describes sequence parallelism to the auto-parallelism planner:
// [p] layouts for every p dividing both the head count and the batch
// (whole sequences per rank), an analytic cost mirroring the schedule the
// layers run (an all-gather into and a reduce-scatter out of every
// parallel linear, plus the backward re-gathers that pay for discarding
// the gathered rows), and a per-rank memory holding 1/p of the activations
// Megatron replicates. The family is never the fastest — its gather/
// scatter brackets move the same bytes as Megatron's all-reduces forward
// and half again backward — so the planner picks it exactly when memory is
// the binding constraint, which is the trade the family exists for.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "seqpar",
		Grids:  seqparGrids,
		Cost:   seqparCost,
		Memory: seqparMemory,
	}
}

// seqparGrids enumerates [p] for every p ≤ budget dividing the head count
// (the attention head split) and the batch (whole sequences per rank, the
// row-shard alignment vit.TrainLayout checks).
func seqparGrids(w plan.Workload, budget int) []plan.Grid {
	var out []plan.Grid
	for p := 1; p <= budget && p <= w.Heads; p++ {
		if w.Heads%p == 0 && w.Batch%p == 0 {
			out = append(out, plan.Grid{Ranks: p})
		}
	}
	return out
}

func mbytes(elems float64) int64 { return int64(plan.BytesPerElem * elems) }

// seqparCoster adds the family's two collectives to the shared
// accumulator; the group spans ranks [0, p), so it pays inter-node rates as
// soon as p exceeds the node size.
type seqparCoster struct {
	plan.Coster
	p     int
	inter bool
}

// allGather prices gathering the row shards (perRank elements contributed
// by every member) into full rows.
func (c *seqparCoster) allGather(perRank float64) {
	c.Comm += c.Model.AllGatherSeconds(c.p, mbytes(perRank), c.inter)
}

// reduceScatter prices summing full-row partials (full elements of
// payload) down to the local row shard.
func (c *seqparCoster) reduceScatter(full float64) {
	c.Comm += c.Model.ReduceScatterSeconds(c.p, mbytes(full), c.inter)
}

// forwardLayer prices one Block.Forward: each parallel linear pair gathers
// the R/p-row shard to full rows, runs the same GEMM shapes as Megatron,
// and reduce-scatters the partial back — one all-gather plus one
// reduce-scatter per module, the byte volume of one all-reduce. Layer
// norms, residuals and biases run on the local shard.
func (c *seqparCoster) forwardLayer(R, h, hp, s, dh, hl float64) {
	Rl := R / float64(c.p)
	c.allGather(Rl * h)
	c.GEMM(R, 3*hp, h) // QKV
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.Flops(R / s * hl * (4*s*s*dh + compute.FlopsPerSoftmax*s*s))
	c.GEMM(R, h, hp) // projection partial
	c.reduceScatter(R * h)
	c.Flops(Rl * h * compute.FlopsPerAdd) // projection bias
	c.Flops(Rl * h * compute.FlopsPerAdd) // residual
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2))
	c.allGather(Rl * h)
	c.GEMM(R, 4*hp, h) // fc1
	c.Flops(R * 4 * hp * (compute.FlopsPerAdd + compute.FlopsPerGELU))
	c.GEMM(R, h, 4*hp) // fc2 partial
	c.reduceScatter(R * h)
	c.Flops(Rl * h * compute.FlopsPerAdd)
	c.Flops(Rl * h * compute.FlopsPerAdd)
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2))
}

// backwardLayer prices one Block.Backward: each module gathers the sharded
// output gradient, re-gathers its discarded forward input for the weight
// gradients, and reduce-scatters the input gradient — three half-rings
// where Megatron pays two, the price of holding 1/p of the activations.
// The fc1 GELU output is recomputed from the saved pre-activation.
func (c *seqparCoster) backwardLayer(R, h, hp, s, dh, hl float64) {
	Rl := R / float64(c.p)
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2)) // ln2
	// MLP: dz gather, GELU recompute, shard gradients, dx reduce-scatter,
	// input re-gather for dW1.
	c.allGather(Rl * h)
	c.Flops(R * h * compute.FlopsPerAdd)       // fc2 bias sums
	c.Flops(R * 4 * hp * compute.FlopsPerGELU) // GELU recompute
	c.GEMM(4*hp, h, R)
	c.GEMM(R, 4*hp, h)
	c.Flops(R * 4 * hp * (compute.FlopsPerGELU + compute.FlopsPerAdd))
	c.Flops(R * 4 * hp * compute.FlopsPerAdd) // fc1 bias sums
	c.GEMM(R, h, 4*hp)
	c.reduceScatter(R * h)
	c.allGather(Rl * h)
	c.GEMM(h, 4*hp, R)
	c.Flops(Rl * h * compute.FlopsPerAdd) // residual
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2))
	// Attention: dy gather, projection gradients, attention backward, dx
	// reduce-scatter, input re-gather for dQKV.
	c.allGather(Rl * h)
	c.Flops(R * h * compute.FlopsPerAdd) // projection bias sums
	c.GEMM(hp, h, R)
	c.GEMM(R, hp, h)
	c.Flops(R / s * hl * (8*s*s*dh + compute.FlopsPerSoftmax*s*s))
	c.GEMM(R, h, 3*hp)
	c.reduceScatter(R * h)
	c.allGather(Rl * h)
	c.GEMM(h, 3*hp, R)
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.Flops(Rl * h * compute.FlopsPerAdd)
}

// seqparCost prices a workload on one [p] layout.
func seqparCost(w plan.Workload, g plan.Grid, t plan.Topology) plan.Breakdown {
	p := g.Ranks
	R := float64(w.Tokens())
	h := float64(w.Hidden)
	hp := h / float64(p)
	s := float64(w.SeqLen)
	dh := h / float64(w.Heads)
	hl := float64(w.Heads) / float64(p)
	inter := t.SpansNodes(0, p-1)

	fwd := &seqparCoster{Coster: plan.Coster{Model: t.Cost}, p: p, inter: inter}
	fwd.forwardLayer(R, h, hp, s, dh, hl)
	bwd := &seqparCoster{Coster: plan.Coster{Model: t.Cost}, p: p, inter: inter}
	bwd.backwardLayer(R, h, hp, s, dh, hl)
	return plan.Assemble(w, &fwd.Coster, &bwd.Coster, 0)
}

// seqparMemory estimates the bytes one rank holds across a training step:
// the Megatron-shaped weight shards with gradients, and an activation set
// that is 1/p of Megatron's replicated footprint — per layer the retained
// shard-width buffers (Q/K/V, the attention output, the fc1
// pre-activation, four row-shard activations) plus one transient full-row
// gathered buffer, plus this rank's share of the softmax probabilities.
func seqparMemory(w plan.Workload, g plan.Grid) int64 {
	p := float64(g.Ranks)
	R := float64(w.Tokens())
	h := float64(w.Hidden)
	hp := h / p
	s := float64(w.SeqLen)
	hl := float64(w.Heads) / p
	L := float64(w.Layers)
	weights := 12*h*hp + 7*hp + 2*h // shards + shard biases + replicated biases
	probs := float64(w.Batch) * hl * s * s
	acts := R*(12*hp+h) + probs
	io := 2*R*h/p + 2*R*h
	return mbytes(L*(2*weights+acts) + io)
}
