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
// layout whose gradient sums over the row group (Mesh-TensorFlow): Backward
// computes the weight and bias partials into their Grads and lands them on
// grads over sum, so with sum set their in-place all-reduces run until
// DrainGradients, and with sum nil (the head, Megatron's replicated input)
// the partials are the gradients, bitwise identical to nn.Linear's. Buffers
// come from the workspace, bias and GELU fused into the GEMM write-back;
// outputs live until the step-boundary ReleaseAll.
type ReplicatedLinear struct {
	*nn.Linear
	w     *dist.Worker
	sum   *dist.Group
	grads *Grads

	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewReplicatedLinear draws the full weight from rng (the serial stream)
// and replicates it on the calling rank, landing its gradients on grads
// summed over sum (nil: not summed).
func NewReplicatedLinear(w *dist.Worker, sum *dist.Group, grads *Grads, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *ReplicatedLinear {
	l := &ReplicatedLinear{Linear: nn.NewLinear(in, out, act, bias, rng), w: w, sum: sum, grads: grads}
	grads.Expect(sum, len(l.Params()))
	return l
}

// State exposes the replicated weight (and bias, if present) as canonical
// slots; only rank 0, the family's first, contributes to a collect.
func (l *ReplicatedLinear) State() []State {
	p := l.w.Rank() == 0
	out := []State{Shard{Param: l.W, Rows: l.In, Cols: l.Out}.State(p)}
	if l.B != nil {
		out = append(out, Shard{Param: l.B, Rows: 1, Cols: l.Out}.State(p))
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

// Backward lands the weight and bias gradients and returns the input
// gradient, a workspace buffer owned by the caller.
func (l *ReplicatedLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	ws := l.w.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
		compute.GELUGradHadamardTo(l.w, g, l.pre, dy)
		dy, dyScratch = g, g
	}
	l.W.Grad.Zero() // the TN kernel accumulates; the gradient starts fresh
	compute.MatMulTNInto(l.w, l.W.Grad, l.x, dy)
	l.grads.Land(l.sum, l.W)
	if l.B != nil {
		compute.ColSumsInto(l.w, l.B.Grad, dy)
		l.grads.Land(l.sum, l.B)
	}
	dx := ws.GetUninitMatch(dy.Rows, l.In, ph)
	compute.MatMulNTInto(l.w, dx, dy, l.W.Value)
	if dyScratch != nil {
		ws.Put(dyScratch)
	}
	return dx
}

// LayerNorm is the one layer norm (Eq. 13, backward Eq. 14), whatever the
// layout. A row-wise op needs only its rows' statistics summed over the
// group that splits its reduced axis (Mesh-TensorFlow): cols, the group the
// activation columns split over (§3.2.2's grid row), nil when rows are
// whole. Each direction is one fused pass per row into a [rows, 2]
// workspace message — Σx and Σx² forward, Σdy·x̂ and Σdy backward — that
// cols all-reduces in place, then the rows normalise locally.
//
// The running sums accumulate the individually rounded terms in
// ascending-column order and every later rounding (mean, variance, inverse
// std, normalise) is nn.LayerNorm's operation sequence, so with whole rows
// the output is nn.LayerNorm's bit for bit. x̂ and the per-row 1/σ ride to
// the step boundary; the input is never retained.
type LayerNorm struct {
	w    *dist.Worker
	cols *dist.Group
	h    int // full hidden width
	eps  float64

	xhat   *tensor.Matrix
	invstd *tensor.Matrix // per-row 1/sqrt(var+eps)
}

// NewLayerNorm builds the layer norm over hidden width h, whose columns
// split over cols (nil: not split).
func NewLayerNorm(w *dist.Worker, cols *dist.Group, h int) *LayerNorm {
	if h%shards(cols) != 0 {
		panic(fmt.Sprintf("parallel: LayerNorm width %d not divisible by %d column shards", h, shards(cols)))
	}
	return &LayerNorm{w: w, cols: cols, h: h, eps: 1e-5}
}

// Forward normalises the rank's block x into a workspace buffer.
func (l *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols*shards(l.cols) != l.h {
		panic(fmt.Sprintf("parallel: LayerNorm forward %dx%d with h=%d", x.Rows, x.Cols, l.h))
	}
	ws := l.w.Workspace()
	ph, n := x.Phantom(), x.Cols
	stats := ws.GetUninitMatch(x.Rows, 2, ph)
	if !ph {
		for i := 0; i < x.Rows; i++ {
			var s, s2 float64
			for _, v := range x.Data[i*n : (i+1)*n] {
				s += v
				p := v * v
				s2 += p
			}
			stats.Data[2*i], stats.Data[2*i+1] = s, s2
		}
	}
	l.reduce(stats, x.Size())
	xhat := ws.GetUninitMatch(x.Rows, n, ph)
	inv := ws.GetUninitMatch(x.Rows, 1, ph)
	l.xhat, l.invstd = xhat, inv
	if !ph {
		invN := 1 / float64(l.h)
		for i := 0; i < x.Rows; i++ {
			mean := invN * stats.Data[2*i]
			variance := invN*stats.Data[2*i+1] - mean*mean
			iv := 1 / math.Sqrt(variance+l.eps)
			inv.Data[i] = iv
			orow := xhat.Data[i*n : (i+1)*n]
			for j, v := range x.Data[i*n : (i+1)*n] {
				orow[j] = (v - mean) * iv
			}
		}
	}
	ws.Put(stats)
	return xhat
}

// Backward applies Eq. 14 to the rank's gradient block, into a workspace
// buffer.
func (l *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	ws := l.w.Workspace()
	ph, n := dy.Phantom() || l.xhat.Phantom(), dy.Cols
	stats := ws.GetUninitMatch(dy.Rows, 2, ph)
	if !ph {
		for i := 0; i < dy.Rows; i++ {
			xrow := l.xhat.Data[i*n : (i+1)*n]
			var dot, sum float64
			for j, d := range dy.Data[i*n : (i+1)*n] {
				p := d * xrow[j]
				dot += p
				sum += d
			}
			stats.Data[2*i], stats.Data[2*i+1] = dot, sum
		}
	}
	l.reduce(stats, dy.Size())
	out := ws.GetUninitMatch(dy.Rows, n, ph)
	if !ph {
		invN := 1 / float64(l.h)
		for i := 0; i < dy.Rows; i++ {
			a := invN * stats.Data[2*i]
			b := invN * stats.Data[2*i+1]
			iv := l.invstd.Data[i]
			xrow := l.xhat.Data[i*n : (i+1)*n]
			orow := out.Data[i*n : (i+1)*n]
			for j, d := range dy.Data[i*n : (i+1)*n] {
				orow[j] = ((d - xrow[j]*a) - b) * iv
			}
		}
	}
	ws.Put(stats)
	return out
}

// reduce sums the statistics message over cols in place and charges the
// pass over size elements: the two sums before the all-reduce and the
// normalisation after it, or all of it in one charge when nothing is
// summed.
func (l *LayerNorm) reduce(stats *tensor.Matrix, size int) {
	if l.cols == nil {
		l.w.Compute(float64(size) * (2*compute.FlopsPerAdd + compute.FlopsPerNorm))
		return
	}
	l.w.Compute(float64(2*size) * compute.FlopsPerAdd)
	l.cols.AllReduceInto(l.w, stats, stats)
	l.w.Compute(float64(size) * compute.FlopsPerNorm)
}

// Params returns nil: Eq. 13 normalisation is parameter-free.
func (l *LayerNorm) Params() []*nn.Param { return nil }

// State returns nil: nothing to checkpoint.
func (l *LayerNorm) State() []State { return nil }
