package parallel

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Dense is the one local linear: a serial linear over the weight shard the
// rank holds, run on the rows the rank holds, every flop charged through
// compute. Cut whole, so that every rank holds the same weight, it is every
// family's classifier head and the 1-D families' patch embedding; cut by
// columns or by rows it is the GEMM under Megatron-LM's column- and
// row-parallel linears, which add the collectives around it (Figure 2). A
// weight replicated over row-split input is one layout whose gradient sums
// over the row group (Mesh-TensorFlow): Backward computes the weight and bias
// partials into their Grads and lands them on grads over sum, so with sum
// set their in-place all-reduces run until DrainGradients, and with sum nil
// (the head, Megatron's replicated input, every weight shard) the partials
// are the gradients — a whole weight's bitwise identical to nn.Linear's.
// Buffers come from the workspace, bias and GELU fused into the GEMM
// write-back; outputs live until the step-boundary ReleaseAll.
type Dense struct {
	W, B Shard // the weight shard and the bias of its columns; a zero B is no bias
	Act  nn.Activation
	// X and Pre are the input and pre-activation Forward saves for
	// Backward. A layer that runs its own forward schedule over the core
	// saves its input in X.
	X, Pre *tensor.Matrix

	w      *dist.Worker
	sum    *dist.Group
	grads  *Grads
	params [2]*nn.Param // Params' backing, refilled from W and B on each call
}

// NewDense builds the local linear over the shards W and B cut from one
// Weight, landing their gradients on grads summed over sum (nil: not
// summed). Phantom shards (a nil rng's Weight) build the shape-only
// layer. It returns the value, so a layer that runs on the core embeds it
// without a second allocation.
func NewDense(w *dist.Worker, sum *dist.Group, grads *Grads, W, B Shard, act nn.Activation) Dense {
	l := Dense{W: W, B: B, Act: act, w: w, sum: sum, grads: grads}
	grads.Expect(sum, len(l.Params()))
	return l
}

// NewReplicatedDense draws the whole [in, out] weight from rng (the serial
// stream; nil: shape only) and builds the Dense every rank holds whole, with
// a zero bias if bias is set.
func NewReplicatedDense(w *dist.Worker, sum *dist.Group, grads *Grads, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *Dense {
	full := Draw(in, out, rng)
	var b Shard
	if bias {
		b = full.Bias("dense.b", 0, out)
	}
	l := NewDense(w, sum, grads, full.Param("dense.w", 0, 0, in, out), b, act)
	return &l
}

// Params returns the weight and bias shards. The slice is the layer's own:
// read it, do not write it.
func (l *Dense) Params() []*nn.Param {
	l.params = [2]*nn.Param{l.W.Param, l.B.Param}
	if l.B.Param == nil {
		return l.params[:1:1]
	}
	return l.params[:2:2]
}

// State is the shards' checkpoint slots. A shard cut whole is replicated on
// every rank of the family, and only rank 0, the family's first, writes it
// in a collect; every holder of a smaller block writes its own.
func (l *Dense) State() []State {
	out := append(make([]State, 0, 2), l.state(l.W))
	if l.B.Param != nil {
		out = append(out, l.state(l.B))
	}
	return out
}

func (l *Dense) state(s Shard) State {
	whole := s.Value.Rows == s.Rows && s.Value.Cols == s.Cols
	return s.State(!whole || l.w.Rank() == 0)
}

// Forward runs the GEMM on the rank's rows, bias and GELU fused into the
// write-back.
func (l *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	wt := l.W.Value
	if x.Cols != wt.Rows {
		panic(fmt.Sprintf("parallel: Dense forward %dx%d through %dx%d", x.Rows, x.Cols, wt.Rows, wt.Cols))
	}
	ws := l.w.Workspace()
	ph := x.Phantom() || wt.Phantom()
	l.X = x
	pre := ws.GetUninitMatch(x.Rows, wt.Cols, ph)
	pre.Zero()
	l.Pre = pre
	var bias *tensor.Matrix
	if l.B.Param != nil {
		bias = l.B.Value
	}
	if l.Act == nn.ActGELU {
		act := ws.GetUninitMatch(x.Rows, wt.Cols, ph)
		compute.MatMulBiasGELUInto(l.w, act, pre, x, wt, bias)
		return act
	}
	if bias != nil {
		compute.MatMulBiasInto(l.w, pre, x, wt, bias)
	} else {
		compute.MatMulInto(l.w, pre, x, wt)
	}
	return pre
}

// Backward lands the weight and bias gradients and returns the input
// gradient, a workspace buffer owned by the caller.
func (l *Dense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	ws := l.w.Workspace()
	wt := l.W.Value
	ph := dy.Phantom() || wt.Phantom()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.Pre.Phantom())
		compute.GELUGradHadamardTo(l.w, g, l.Pre, dy)
		dy, dyScratch = g, g
	}
	l.W.Grad.Zero() // the TN kernel accumulates; the gradient starts fresh
	compute.MatMulTNInto(l.w, l.W.Grad, l.X, dy)
	l.grads.Land(l.sum, l.W.Param)
	if l.B.Param != nil {
		compute.ColSumsInto(l.w, l.B.Grad, dy)
		l.grads.Land(l.sum, l.B.Param)
	}
	dx := ws.GetUninitMatch(dy.Rows, wt.Rows, ph)
	compute.MatMulNTInto(l.w, dx, dy, wt)
	ws.Put(dyScratch)
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
