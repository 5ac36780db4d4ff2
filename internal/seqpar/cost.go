package seqpar

import "repro/internal/plan"

// PlanAlgo describes sequence parallelism to the auto-parallelism planner:
// [p] layouts for every p dividing both the head count and the batch
// (whole sequences per rank) and a per-rank memory holding 1/p of the
// activations Megatron replicates. What a layout costs the planner finds by
// replaying the block this package registers. The family is never the
// fastest — its gather/scatter brackets move the same bytes as Megatron's
// all-reduces forward and half again backward — so the planner picks it
// exactly when memory is the binding constraint, which is the trade the
// family exists for.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "seqpar",
		Grids:  seqparGrids,
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
	return int64(plan.BytesPerElem * (L*(2*weights+acts) + io))
}
