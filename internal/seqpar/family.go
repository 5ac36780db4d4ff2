package seqpar

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"
)

func init() {
	parallel.Register(parallel.Spec{
		Name: "seqpar",
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			return NewFamily(w, l), nil
		},
		Check: func(l parallel.Layout) error {
			if l.Q != 0 {
				return fmt.Errorf("seqpar: 1-D family cannot take a mesh %s", l.Shape())
			}
			return nil
		},
		RowShards: func(l parallel.Layout) int { return l.Ranks },
	})
}

// Grids is sequence parallelism's plan.Algo: [p] layouts for every p
// dividing both the head count (the attention head split) and the batch
// (whole sequences per rank, the row-shard alignment vit.TrainLayout
// checks). What a layout costs and what a rank holds the planner finds by
// replaying the block this package registers. The family is never the
// fastest — its gather/scatter brackets move the same bytes as Megatron's
// all-reduces forward and half again backward — so the planner picks it
// exactly when memory is the binding constraint, which is the trade the
// family exists for.
func Grids(w plan.Workload, budget int) []parallel.Layout {
	var out []parallel.Layout
	for p := 1; p <= budget && p <= w.Heads; p++ {
		if w.Heads%p == 0 && w.Batch%p == 0 {
			out = append(out, parallel.Layout{Family: "seqpar", Ranks: p})
		}
	}
	return out
}

// Family is sequence parallelism's implementation of the family-agnostic
// model layer: megatron's family under the RowSharded bracket — activations
// split p ways along rows (whole sequences per rank), weights sharded
// exactly like Megatron-LM; layout, blocks, layer norms, head and step
// boundary are inherited, and the layer norms and residual adds inside the
// block run on 1/p of the rows, which is where the activation-memory edge
// over Megatron comes from. Only the patch embedding is its own.
type Family struct {
	*megatron.Family
}

// NewFamily attaches the calling worker to the sequence-parallel group
// layout l names and returns the family view.
func NewFamily(w *dist.Worker, l parallel.Layout) *Family {
	return &Family{Family: megatron.NewFamily(w, l, megatron.RowSharded)}
}

// NewLinear builds the shard-local linear (the ViT patch embedding): the
// weight is replicated, the GEMM runs on the local rows, and the gradient
// all-reduce is deferred to DrainGradients.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	return newShardLinear(f, in, out, act, bias, rng)
}
