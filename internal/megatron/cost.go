package megatron

import "repro/internal/plan"

// PlanAlgo describes Megatron-LM to the auto-parallelism planner: [p]
// layouts for every p that divides the head count and the Eq. 9-style
// per-rank memory — the replicated activations that make the family cheap
// to communicate and expensive to hold. What a layout costs the planner
// finds by replaying the block this package registers.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "megatron",
		Grids:  megatronGrids,
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
	return int64(plan.BytesPerElem * (L*(2*weights+acts) + io))
}
