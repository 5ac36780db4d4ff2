package megatron

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"
)

func init() {
	parallel.RegisterCheck("megatron", func(l parallel.Layout) error {
		if l.Q != 0 {
			return fmt.Errorf("megatron: 1-D family cannot take a mesh %s", l.Shape())
		}
		return nil
	})
	parallel.Register("megatron", func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
		return NewFamily(w, l, Replicated), nil
	})
}

// PlanAlgo describes Megatron-LM to the auto-parallelism planner: [p]
// layouts for every p that divides the head count. What a layout costs and
// what a rank holds — the replicated activations that make the family cheap
// to communicate and expensive to hold — the planner finds by replaying the
// block this package registers.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "megatron",
		// heads % p == 0 implies every weight split the layers perform.
		Grids: func(w plan.Workload, budget int) []plan.Grid {
			var out []plan.Grid
			for p := 1; p <= budget && p <= w.Heads; p++ {
				if w.Heads%p == 0 {
					out = append(out, plan.Grid{Ranks: p})
				}
			}
			return out
		},
	}
}

// Family is Megatron-LM's implementation of the family-agnostic model
// layer: activations fully replicated on every rank (the memory cost Eq. 9
// charges it with), weights split 1-D across the tensor-parallel group.
// Distribute, Collect, Slice and GatherPooled are therefore identities —
// replication is this family's distribution — and the Transformer block is
// the shared parallel.Block over this package's column/row linear pairs,
// with parallel.ReplicatedLayerNorm for the un-sharded layer norms. Package
// seqpar embeds it under the RowSharded bracket and overrides the
// distribution half.
type Family struct {
	p      *Proc
	layout parallel.Layout
}

// NewFamily attaches the calling worker to the tensor-parallel group
// layout l names and returns the family view whose blocks run under
// bracket b.
func NewFamily(w *dist.Worker, l parallel.Layout, b Bracket) *Family {
	p := NewProcAt(w, l.Ranks, l.Base)
	p.bracket = b
	return &Family{p: p, layout: l}
}

// Name returns "megatron".
func (f *Family) Name() string { return "megatron" }

// Layout returns the 1-D layout.
func (f *Family) Layout() parallel.Layout { return f.layout }

// Worker returns the rank's cluster view.
func (f *Family) Worker() *dist.Worker { return f.p.W }

// Proc exposes the underlying tensor-parallel view.
func (f *Family) Proc() *Proc { return f.p }

// RowShards returns 1: activations are replicated, never row-split.
func (f *Family) RowShards() int { return 1 }

// NewLinear builds the replicated serial linear: Megatron keeps
// activations replicated, so a model-level linear that must map a
// replicated input to a replicated output (the ViT patch embedding) is
// computed redundantly on every rank, exactly like the classifier head.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	return parallel.NewReplicatedLinearAt(f.p.W, f.layout.Base, in, out, act, bias, rng)
}

// Shards returns p: weights split their columns, and attention its heads,
// over the whole group.
func (f *Family) Shards() int { return f.p.P }

// NewLinearPair shards a sub-module's two weights as a column-parallel
// linear feeding a row-parallel one, so the wide activation between them
// never leaves the rank. Behind a GELU the row layer knows its source:
// RowSharded, it recycles the GELU output after its forward GEMM and
// recomputes it from the column layer's saved pre-activation for the weight
// gradient, halving the MLP's retained activations.
func (f *Family) NewLinearPair(in, out parallel.Weight, act nn.Activation) (parallel.Layer, parallel.Layer) {
	col, row := newCol(f.p, in, act, true), newRow(f.p, out, true)
	if act == nn.ActGELU {
		row.src = col
	}
	return col, row
}

// Lifetime follows the bracket: Replicated, every intermediate rides to the
// step boundary; RowSharded, each goes back the moment its last reader is
// done.
func (f *Family) Lifetime() parallel.Lifetime {
	if f.p.bracket == RowSharded {
		return parallel.Transient
	}
	return parallel.KeepAll
}

// NewBlock builds one 1-D parallel Transformer block under the family's
// bracket; a nil rng builds the shape-only one. The layer norms and residual
// adds are row-local, so they run on whatever rows the bracket leaves on the
// rank. Per layer and direction the Replicated block performs exactly two
// all-reduces of the [b·s, h] activation — the volume 2β(p−1)·b·s·h/p §3.1
// attributes to Megatron-LM; the RowSharded block moves the same bytes
// forward as two all-gathers plus two reduce-scatters, and half again
// backward for the re-gathers.
func (f *Family) NewBlock(h, heads, seqLen int, rng *tensor.RNG) parallel.Layer {
	return parallel.NewBlock(f, h, heads, seqLen, rng)
}

// NewBlockPhantom builds the shape-only block for paper-scale timing.
func (f *Family) NewBlockPhantom(h, heads, seqLen int) parallel.Layer {
	return f.NewBlock(h, heads, seqLen, nil)
}

// NewLayerNorm builds the replicated (un-sharded) layer norm.
func (f *Family) NewLayerNorm(h int) parallel.Layer {
	return parallel.NewReplicatedLayerNorm(f.p.W, h)
}

// NewHead builds the replicated classifier head; the group base rank is its
// checkpoint primary.
func (f *Family) NewHead(in, out int, rng *tensor.RNG) parallel.Layer {
	return parallel.NewReplicatedLinearAt(f.p.W, f.layout.Base, in, out, nn.ActNone, true, rng)
}

// Distribute is the identity: every rank holds the full activation.
func (f *Family) Distribute(global *tensor.Matrix) *tensor.Matrix { return global }

// Collect is the identity: activations are already replicated.
func (f *Family) Collect(local *tensor.Matrix) *tensor.Matrix { return local }

// Slice reports the whole matrix: this rank holds all of it.
func (f *Family) Slice(rows, cols int) parallel.Slice {
	return parallel.Slice{Rows: rows, Cols: cols}
}

// GatherPooled is the identity: pooling a replicated activation yields the
// full replicated result on every rank.
func (f *Family) GatherPooled(local *tensor.Matrix) *tensor.Matrix { return local }

// DrainGradients is a no-op: the column/row-parallel linears synchronise
// activations in-line and their weight-shard gradients are rank-local.
func (f *Family) DrainGradients() {}

// EndStep recycles the rank's workspace at the step boundary.
func (f *Family) EndStep() { f.p.W.Workspace().ReleaseAll() }
