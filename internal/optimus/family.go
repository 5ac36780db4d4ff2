// Package optimus is the 2-D tensor parallelism of Optimus (Xu et al., §2.2
// of the paper), the paper's second baseline. Optimus distributes both
// activations and parameters over a q×q SUMMA mesh; structurally it is
// exactly the d = 1 special case of Tesseract — the paper itself notes that
// "d = 1 makes Tesseract a 2-D algorithm like SUMMA", and its Table 1/2
// shapes [2,2] vs [2,2,1] confirm near-identical behaviour. The package is
// therefore one registration, with no family type or layer code of its own:
// its Spec builds Tesseract's family under the name "optimus" on the Grid
// arrangement, the depth-1 mesh. Keeping one implementation guarantees the baseline and the
// contribution differ only in the dimension under study; the planner prices
// it as tesseract [q,q].
package optimus

import (
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tesseract"
)

func init() {
	parallel.Register(parallel.Spec{
		Name: "optimus",
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			return tesseract.NewFamily(w, l), nil
		},
		Arrangement: parallel.Grid,
	})
}
