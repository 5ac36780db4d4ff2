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
// The weight sharding is Megatron-LM's, and so are the layers: the
// Transformer block is the shared parallel.Block over package megatron's
// column/row-parallel linears run under the megatron.RowSharded bracket,
// which is also why checkpoints re-shard freely between the two families. What
// lives here is what genuinely differs for row-sharded activations: the
// Family adapter (Distribute slices rows, Collect and GatherPooled
// all-gather them), the shard-local patch embedding with its deferred
// replicated-weight gradient sync, and the planner descriptor.
package seqpar

import (
	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// gradSync is one in-flight replicated-parameter gradient all-reduce: the
// handle, the parameter it lands on, and the pooled buffer carrying the sum.
type gradSync struct {
	h     dist.Handle
	param *nn.Param
	buf   *tensor.Matrix
}

// shardLinear is the family's fully connected layer (the ViT patch
// embedding): the weight is replicated — the input rows are already
// sharded, so the GEMM is local with no communication at all — and the
// backward pass queues a nonblocking all-reduce per gradient so the
// replicated parameters see the sum over every rank's row shard, bitwise
// identical on all ranks. The handles drain in DrainGradients, hiding the
// sync behind the rest of the backward pass.
type shardLinear struct {
	In, Out int
	Act     nn.Activation
	W       *nn.Param // [In, Out], replicated
	B       *nn.Param // [1, Out], replicated

	f   *Family
	x   *tensor.Matrix
	pre *tensor.Matrix
}

// newShardLinear draws the full Xavier weight from rng (the serial stream)
// and replicates it, like nn.NewLinear with a deferred gradient sum.
func newShardLinear(f *Family, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *shardLinear {
	l := &shardLinear{In: in, Out: out, Act: act, f: f}
	l.W = nn.NewParam("seqpar.linear.w", tensor.XavierMatrix(in, out, rng))
	if bias {
		l.B = nn.NewParam("seqpar.linear.b", tensor.New(1, out))
	}
	return l
}

// Forward runs the local GEMM on the rank's row shard, bias and GELU fused
// into the write-back.
func (l *shardLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	w := l.f.Worker()
	ws := w.Workspace()
	ph := x.Phantom() || l.W.Value.Phantom()
	pre := ws.GetUninitMatch(x.Rows, l.Out, ph)
	pre.Zero()
	l.pre = pre
	var bias *tensor.Matrix
	if l.B != nil {
		bias = l.B.Value
	}
	if l.Act == nn.ActGELU {
		act := ws.GetUninitMatch(x.Rows, l.Out, ph)
		compute.MatMulBiasGELUInto(w, act, pre, x, l.W.Value, bias)
		return act
	}
	if bias != nil {
		compute.MatMulBiasInto(w, pre, x, l.W.Value, bias)
	} else {
		compute.MatMulInto(w, pre, x, l.W.Value)
	}
	return pre
}

// Backward computes the shard-local gradient partials, queues their
// all-reduce for DrainGradients, and returns the sharded input gradient.
func (l *shardLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	f, w := l.f, l.f.Worker()
	ws := w.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
		compute.GELUGradHadamardTo(w, g, l.pre, dy)
		dy, dyScratch = g, g
	}
	dw := ws.GetUninitMatch(l.In, l.Out, ph)
	dw.Zero()
	compute.MatMulTNInto(w, dw, l.x, dy)
	f.pending = append(f.pending, gradSync{
		h: f.Proc().TP.IAllReduceInto(w, dw, dw), param: l.W, buf: dw,
	})
	if l.B != nil {
		db := ws.GetUninitMatch(1, l.Out, ph)
		compute.ColSumsInto(w, db, dy)
		f.pending = append(f.pending, gradSync{
			h: f.Proc().TP.IAllReduceInto(w, db, db), param: l.B, buf: db,
		})
	}
	dx := ws.GetUninitMatch(dy.Rows, l.In, ph)
	compute.MatMulNTInto(w, dx, dy, l.W.Value)
	if dyScratch != nil {
		ws.Put(dyScratch)
	}
	return dx
}

// Params returns the replicated parameters.
func (l *shardLinear) Params() []*nn.Param {
	if l.B == nil {
		return []*nn.Param{l.W}
	}
	return []*nn.Param{l.W, l.B}
}

// State exposes the replicated patch-embedding parameters as full
// checkpoint slots; the group's base rank is the primary.
func (l *shardLinear) State() []parallel.State {
	primary := l.f.Proc().Rank == 0
	out := []parallel.State{parallel.FullState(l.W, l.In, l.Out, primary)}
	if l.B != nil {
		out = append(out, parallel.FullState(l.B, 1, l.Out, primary))
	}
	return out
}
