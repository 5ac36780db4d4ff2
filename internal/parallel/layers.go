package parallel

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ReplicatedLinear is the one replicated-weight linear: a serial nn.Linear
// every rank holds whole, run on the rows the rank holds, every flop charged
// through compute. It is every family's classifier head and the 1-D
// families' patch embedding. A weight replicated over row-split input is one
// layout whose gradient sums over the row group (Mesh-TensorFlow): with sum
// set, Backward queues the weight and bias partials' all-reduces on grads
// for DrainGradients; with sum nil (the head, Megatron's replicated input)
// it accumulates them in place, bitwise identical to nn.Linear. Buffers come
// from the workspace, bias and GELU fused into the GEMM write-back; outputs
// live until the step-boundary ReleaseAll.
type ReplicatedLinear struct {
	*nn.Linear
	w     *dist.Worker
	sum   *dist.Group
	grads *Grads

	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewReplicatedLinear draws the full weight from rng (the serial stream)
// and replicates it on the calling rank; sum and grads may be nil.
func NewReplicatedLinear(w *dist.Worker, sum *dist.Group, grads *Grads, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *ReplicatedLinear {
	return &ReplicatedLinear{Linear: nn.NewLinear(in, out, act, bias, rng), w: w, sum: sum, grads: grads}
}

// NewHead builds any family's classifier head: a replicated serial linear
// computed redundantly on every rank from replicated features — the
// standard treatment for heads whose cost is negligible.
func NewHead(f Family, in, out int, rng *tensor.RNG) *ReplicatedLinear {
	return NewReplicatedLinear(f.Worker(), nil, nil, in, out, nn.ActNone, true, rng)
}

// State exposes the replicated weight (and bias, if present) as canonical
// slots; only rank 0, the family's first, contributes to a collect.
func (l *ReplicatedLinear) State() []State {
	p := l.w.Rank() == 0
	out := []State{FullState(l.W, l.In, l.Out, p)}
	if l.B != nil {
		out = append(out, FullState(l.B, 1, l.Out, p))
	}
	return out
}

// Forward runs the GEMM on the rank's rows, bias and GELU fused into the
// write-back.
func (l *ReplicatedLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.In {
		panic(fmt.Sprintf("parallel: ReplicatedLinear forward %dx%d through %d->%d", x.Rows, x.Cols, l.In, l.Out))
	}
	ws := l.w.Workspace()
	ph := x.Phantom() || l.W.Value.Phantom()
	l.x = x
	pre := ws.GetUninitMatch(x.Rows, l.Out, ph)
	pre.Zero()
	l.pre = pre
	var bias *tensor.Matrix
	if l.B != nil {
		bias = l.B.Value
	}
	if l.Act == nn.ActGELU {
		act := ws.GetUninitMatch(x.Rows, l.Out, ph)
		compute.MatMulBiasGELUInto(l.w, act, pre, x, l.W.Value, bias)
		return act
	}
	if bias != nil {
		compute.MatMulBiasInto(l.w, pre, x, l.W.Value, bias)
	} else {
		compute.MatMulInto(l.w, pre, x, l.W.Value)
	}
	return pre
}

// Backward folds in or queues the weight and bias gradients and returns the
// input gradient, a workspace buffer owned by the caller.
func (l *ReplicatedLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	ws := l.w.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
		compute.GELUGradHadamardTo(l.w, g, l.pre, dy)
		dy, dyScratch = g, g
	}
	dw := ws.GetUninitMatch(l.In, l.Out, ph)
	dw.Zero()
	compute.MatMulTNInto(l.w, dw, l.x, dy)
	l.accum(l.W, dw)
	if l.B != nil {
		db := ws.GetUninitMatch(1, l.Out, ph)
		compute.ColSumsInto(l.w, db, dy)
		l.accum(l.B, db)
	}
	dx := ws.GetUninitMatch(dy.Rows, l.In, ph)
	compute.MatMulNTInto(l.w, dx, dy, l.W.Value)
	if dyScratch != nil {
		ws.Put(dyScratch)
	}
	return dx
}

// accum folds a gradient into p now, or queues its sum over the row group,
// which takes the buffer over.
func (l *ReplicatedLinear) accum(p *nn.Param, g *tensor.Matrix) {
	if l.sum == nil {
		p.AccumGrad(g)
		l.w.Workspace().Put(g)
		return
	}
	l.grads.DeferAllReduce(l.sum, p, g)
}

// ReplicatedLayerNorm is the Eq. 13 layer norm computed redundantly on a
// replicated activation, with the normalisation flops charged to the
// simulated clock — the pattern Megatron uses for its un-sharded layer
// norms, hoisted here so no family needs its own thin wrapper.
//
// The row statistics are computed in one fused pass per row out of pooled
// buffers, bitwise identical to nn.LayerNorm's op-by-op chain: the running
// sums accumulate the same individually rounded terms in the same
// ascending-column order, and every subsequent rounding (mean, variance,
// inverse std, normalise) is the identical operation sequence.
type ReplicatedLayerNorm struct {
	w   *dist.Worker
	h   int
	eps float64

	xhat   *tensor.Matrix
	invstd *tensor.Matrix // per-row 1/sqrt(var+eps)
}

// NewReplicatedLayerNorm builds the replicated layer norm over width h.
func NewReplicatedLayerNorm(w *dist.Worker, h int) *ReplicatedLayerNorm {
	return &ReplicatedLayerNorm{w: w, h: h, eps: 1e-5}
}

// Forward normalises the replicated activation into a workspace buffer.
// The normalised rows and per-row inverse stds are retained for the
// backward pass; the input is not.
func (l *ReplicatedLayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.h {
		panic(fmt.Sprintf("parallel: ReplicatedLayerNorm forward %dx%d with h=%d", x.Rows, x.Cols, l.h))
	}
	l.w.Compute(float64(x.Size()) * (compute.FlopsPerNorm + 2))
	ws := l.w.Workspace()
	xhat := ws.GetUninitMatch(x.Rows, x.Cols, x.Phantom())
	inv := ws.GetUninitMatch(x.Rows, 1, x.Phantom())
	l.xhat, l.invstd = xhat, inv
	if x.Phantom() {
		return xhat
	}
	n := x.Cols
	invN := 1 / float64(n)
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*n : (i+1)*n]
		var s, s2 float64
		for _, v := range row {
			s += v
			p := v * v
			s2 += p
		}
		mean := invN * s
		variance := invN*s2 - mean*mean
		iv := 1 / math.Sqrt(variance+l.eps)
		inv.Data[i] = iv
		orow := xhat.Data[i*n : (i+1)*n]
		for j, v := range row {
			orow[j] = (v - mean) * iv
		}
	}
	return xhat
}

// Backward applies Eq. 14 on the replicated gradient, one fused pass per
// row into a workspace buffer.
func (l *ReplicatedLayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	l.w.Compute(float64(dy.Size()) * (compute.FlopsPerNorm + 2))
	ws := l.w.Workspace()
	ph := dy.Phantom() || l.xhat.Phantom()
	out := ws.GetUninitMatch(dy.Rows, dy.Cols, ph)
	if ph {
		return out
	}
	n := dy.Cols
	invN := 1 / float64(n)
	for i := 0; i < dy.Rows; i++ {
		drow := dy.Data[i*n : (i+1)*n]
		xrow := l.xhat.Data[i*n : (i+1)*n]
		var dot, sum float64
		for j, d := range drow {
			p := d * xrow[j]
			dot += p
			sum += d
		}
		a := invN * dot
		b := invN * sum
		iv := l.invstd.Data[i]
		orow := out.Data[i*n : (i+1)*n]
		for j, d := range drow {
			orow[j] = ((d - xrow[j]*a) - b) * iv
		}
	}
	return out
}

// Params returns nil: Eq. 13 normalisation is parameter-free.
func (l *ReplicatedLayerNorm) Params() []*nn.Param { return nil }

// State returns nil: nothing to checkpoint.
func (l *ReplicatedLayerNorm) State() []State { return nil }
