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
	parallel.RegisterCheck("seqpar", func(l parallel.Layout) error {
		if l.Q != 0 {
			return fmt.Errorf("seqpar: 1-D family cannot take a mesh %s", l.Shape())
		}
		return nil
	})
	parallel.RegisterRowShards("seqpar", func(l parallel.Layout) int { return l.Ranks })
	parallel.Register("seqpar", func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
		return NewFamily(w, l), nil
	})
}

// PlanAlgo describes sequence parallelism to the auto-parallelism planner:
// [p] layouts for every p dividing both the head count (the attention head
// split) and the batch (whole sequences per rank, the row-shard alignment
// vit.TrainLayout checks). What a layout costs and what a rank holds the
// planner finds by replaying the block this package registers. The family is
// never the fastest — its gather/scatter brackets move the same bytes as
// Megatron's all-reduces forward and half again backward — so the planner
// picks it exactly when memory is the binding constraint, which is the trade
// the family exists for.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "seqpar",
		Grids: func(w plan.Workload, budget int) []plan.Grid {
			var out []plan.Grid
			for p := 1; p <= budget && p <= w.Heads; p++ {
				if w.Heads%p == 0 && w.Batch%p == 0 {
					out = append(out, plan.Grid{Ranks: p})
				}
			}
			return out
		},
	}
}

// Family is sequence parallelism's implementation of the family-agnostic
// model layer: activations sharded p ways along rows (whole sequences per
// rank), weights sharded exactly like Megatron-LM. It is megatron's family
// under the RowSharded bracket — layout, blocks, layer norms, head and step
// boundary are inherited; the layer norms and residual adds inside the
// block run on 1/p of the rows, which is where the activation-memory edge
// over Megatron comes from — with the distribution half overridden:
// Distribute slices the rank's row block, Collect all-gathers it back.
type Family struct {
	*megatron.Family

	// pending are the replicated-weight gradient all-reduces the patch
	// embedding queues per backward pass, drained by DrainGradients.
	pending []gradSync
}

// NewFamily attaches the calling worker to the sequence-parallel group
// layout l names and returns the family view.
func NewFamily(w *dist.Worker, l parallel.Layout) *Family {
	return &Family{Family: megatron.NewFamily(w, l, megatron.RowSharded)}
}

// Name returns "seqpar".
func (f *Family) Name() string { return "seqpar" }

// RowShards returns p: every rank owns 1/p of the activation rows.
func (f *Family) RowShards() int { return f.Proc().P }

// NewLinear builds the shard-local linear (the ViT patch embedding): the
// weight is replicated, the GEMM runs on the local rows, and the gradient
// all-reduce is deferred to DrainGradients.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	return newShardLinear(f, in, out, act, bias, rng)
}

// Distribute slices this rank's row block out of the replicated global
// activation into a pooled buffer.
func (f *Family) Distribute(global *tensor.Matrix) *tensor.Matrix {
	p := f.Proc()
	if global.Rows%p.P != 0 {
		panic(fmt.Sprintf("seqpar: cannot distribute %d rows across p=%d", global.Rows, p.P))
	}
	br := global.Rows / p.P
	local := p.W.Workspace().GetUninitMatch(br, global.Cols, global.Phantom())
	tensor.SubMatrixInto(local, global, p.Rank*br, 0)
	return local
}

// Collect all-gathers the row shards into the full replicated activation
// on every rank. The local shard stays checked out by its owner.
func (f *Family) Collect(local *tensor.Matrix) *tensor.Matrix {
	return f.Proc().Gather(local)
}

// Slice reports this rank's row block of a replicated [rows, cols]
// activation.
func (f *Family) Slice(rows, cols int) parallel.Slice {
	p := f.Proc()
	if rows%p.P != 0 {
		panic(fmt.Sprintf("seqpar: cannot slice %d rows across p=%d", rows, p.P))
	}
	br := rows / p.P
	return parallel.Slice{Row0: p.Rank * br, Rows: br, Cols: cols}
}

// GatherPooled all-gathers a row-pooled local block into the full
// replicated matrix and recycles the local buffer, whose ownership the
// contract transfers here.
func (f *Family) GatherPooled(local *tensor.Matrix) *tensor.Matrix {
	full := f.Proc().Gather(local)
	f.Worker().Workspace().Put(local)
	return full
}

// DrainGradients completes the patch embedding's queued replicated-weight
// gradient all-reduces; afterwards gradients are final on every rank.
func (f *Family) DrainGradients() {
	ws := f.Worker().Workspace()
	for i := range f.pending {
		s := &f.pending[i]
		s.h.Wait()
		s.param.AccumGrad(s.buf)
		ws.Put(s.buf)
		*s = gradSync{}
	}
	f.pending = f.pending[:0]
}
