package optimus

import (
	"repro/internal/plan"
	"repro/internal/tesseract"
)

// PlanAlgo describes Optimus to the auto-parallelism planner. Optimus is
// the depth-1 special case of Tesseract — this package instantiates the
// shared SUMMA layers on a [q, q, 1] mesh — so its memory closure delegates
// to the Tesseract descriptor pinned at d = 1; only the family name and the
// 2-D grid enumeration differ, exactly like the runtime implementation.
func PlanAlgo() plan.Algo {
	inner := tesseract.PlanAlgo()
	return plan.Algo{
		Family: "optimus",
		Grids: func(w plan.Workload, budget int) []plan.Grid {
			var out []plan.Grid
			for _, g := range inner.Grids(w, budget) {
				if g.D == 1 {
					out = append(out, g)
				}
			}
			return out
		},
		Memory: inner.Memory,
	}
}
