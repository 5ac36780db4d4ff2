// Package seqpar is the sequence-parallel family (Korthikanti et al.,
// "Reducing Activation Recomputation in Large Transformer Models"; the
// natural fourth member of the paper's family zoo): a 1-D layout [p] that
// shards *activations* along the sequence/row dimension instead of
// replicating them. Layer norms, residual adds and element-wise ops run on
// the local R/p-row shard; each parallel linear pair is bracketed by an
// all-gather (restore the full rows its GEMM needs) on the way in and a
// reduce-scatter (sum the partial products and keep only the local rows) on
// the way out. The combined volume of one all-gather plus one
// reduce-scatter equals one all-reduce, so the family moves the same bytes
// as Megatron-LM per layer while holding 1/p of its activations — the
// memory/comm trade the planner exploits under tight memory budgets.
//
// The weight sharding is Megatron-LM's, and so is every layer: the package
// is one registration, with no family type or layer code of its own, exactly
// like package optimus. Its Spec builds megatron's family under the
// megatron.RowSharded bracket on the Rows arrangement: its parallel.View
// splits activation rows over the group and nothing over columns, and its patch
// embedding — a whole-weight parallel.Dense, the one local linear every
// family's head also is — sums its gradients over that group. Sharing the layers is
// also why checkpoints re-shard freely between the two families.
package seqpar

import (
	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/parallel"
)

func init() {
	parallel.Register(parallel.Spec{
		Name: "seqpar",
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			return megatron.NewFamily(w, l, megatron.RowSharded), nil
		},
		Arrangement: parallel.Rows,
	})
}
