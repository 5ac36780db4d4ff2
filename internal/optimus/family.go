// Package optimus is the 2-D tensor parallelism of Optimus (Xu et al., §2.2
// of the paper), the paper's second baseline. Optimus distributes both
// activations and parameters over a q×q SUMMA mesh; structurally it is
// exactly the d = 1 special case of Tesseract — the paper itself notes that
// "d = 1 makes Tesseract a 2-D algorithm like SUMMA", and its Table 1/2
// shapes [2,2] vs [2,2,1] confirm near-identical behaviour. The package is
// therefore two descriptors over the shared SUMMA layers and no layer code
// of its own: Family runs them on a depth-1 mesh under the name "optimus",
// PlanAlgo enumerates its grids for the planner. Keeping one implementation
// guarantees the baseline and the contribution differ only in the dimension
// under study.
package optimus

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tesseract"
)

func init() {
	parallel.RegisterCheck("optimus", func(l parallel.Layout) error {
		if l.Q < 1 {
			return fmt.Errorf("optimus: layout %s needs a mesh dimension q", l)
		}
		if l.D > 1 {
			return fmt.Errorf("optimus: 2-D family cannot take depth %d", l.D)
		}
		return nil
	})
	parallel.Register("optimus", func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
		return newFamily(w, l), nil
	})
}

// PlanAlgo describes Optimus to the auto-parallelism planner: the depth-1
// grids of the Tesseract enumeration under the family's own name, exactly
// like the runtime implementation.
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
	}
}

// Family is Optimus' implementation of the family-agnostic model layer.
// Optimus is exactly the d = 1 special case of Tesseract, so the family
// embeds a depth-1 Tesseract family and differs only in its name and
// layout — the same first-class delegation the planner descriptor uses,
// now shared by models, trainers and the experiment harness.
type Family struct {
	*tesseract.Family
	layout parallel.Layout
}

// NewFamily attaches the calling worker to a q×q mesh based at rank 0 and
// returns the family view.
func NewFamily(w *dist.Worker, q int) *Family {
	return newFamily(w, parallel.Layout{Family: "optimus", Q: q, D: 1, Ranks: q * q})
}

func newFamily(w *dist.Worker, l parallel.Layout) *Family {
	inner := tesseract.NewFamilyAt(w, mesh.Shape{Q: l.Q, D: 1, Base: l.Base})
	return &Family{Family: inner, layout: l}
}

// Name returns "optimus".
func (f *Family) Name() string { return "optimus" }

// Layout returns the 2-D mesh layout.
func (f *Family) Layout() parallel.Layout { return f.layout }
