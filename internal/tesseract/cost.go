package tesseract

import "repro/internal/plan"

// PlanAlgo describes Tesseract to the auto-parallelism planner: feasible
// [q, q, d] grids within a rank budget and the per-rank memory a training
// step holds. What a grid costs the planner finds by replaying the block
// this package registers.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "tesseract",
		Grids:  tesseractGrids,
		Memory: tesseractMemory,
	}
}

// tesseractGrids enumerates the [q, q, d] layouts (1 ≤ d ≤ q, q²d within
// budget) whose divisibility constraints the layer stack accepts: hidden
// and heads split over q, activation rows split over d·q.
func tesseractGrids(w plan.Workload, budget int) []plan.Grid {
	var out []plan.Grid
	for q := 1; q*q <= budget; q++ {
		if w.Hidden%q != 0 || w.Heads%q != 0 {
			continue
		}
		for d := 1; d <= q && q*q*d <= budget; d++ {
			if w.Tokens()%(d*q) != 0 {
				continue
			}
			out = append(out, plan.Grid{Ranks: q * q * d, Q: q, D: d})
		}
	}
	return out
}

// tesseractMemory estimates the bytes one rank holds across a training
// step: parameter shards with their gradients, the activations the
// backward pass retains (dominated by the attention probabilities and the
// MLP intermediates), the input/output gradient blocks, and the pipeline's
// double-buffered panels.
func tesseractMemory(w plan.Workload, g plan.Grid) int64 {
	mh := float64(w.Tokens()) / float64(g.D*g.Q) // local activation rows b·s/(d·q)
	hq := float64(w.Hidden) / float64(g.Q)       // local hidden columns h/q
	hl := float64(w.Heads) / float64(g.Q)        // local heads
	L := float64(w.Layers)
	weights := 12*hq*hq + 9*hq           // four weight shards + row-0 biases
	probs := mh * float64(w.SeqLen) * hl // retained softmax matrices
	acts := 19*mh*hq + probs + 2*mh
	panels := 4*mh*4*hq + 2*4*hq*hq // double-buffered panels + partials at the widest multiply
	io := 2 * mh * hq
	return int64(plan.BytesPerElem * (L*(2*weights+acts) + panels + io))
}
