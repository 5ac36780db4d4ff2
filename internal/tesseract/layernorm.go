package tesseract

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// LayerNorm normalises each activation row across the full hidden dimension
// while the row is physically split across the q processors of a grid row.
// Following §3.2.2, every processor computes the local partial sums of X and
// X², an all-reduce along the grid row produces E[X] and E[X²] (Eq. 13), and
// the normalisation then proceeds locally. The backward pass is Eq. 14 with
// the two row-wide sums (Σ x̂·dŷ and Σ dŷ) obtained by the same row
// all-reduce. Depth layers hold disjoint block rows, so no depth
// communication is needed.
//
// All intermediates come from the worker's workspace: the fused [m̂, 2]
// statistics message is packed, all-reduced in place and unpacked without
// allocating, and x̂/1/σ are retained in workspace buffers until the step
// boundary.
type LayerNorm struct {
	H   int // full hidden width
	Eps float64

	p      *Proc
	xhat   *tensor.Matrix
	invstd *tensor.Matrix
}

// NewLayerNorm builds a distributed LayerNorm over hidden width h.
func NewLayerNorm(p *Proc, h int) *LayerNorm {
	if h%p.Shape.Q != 0 {
		panic(fmt.Sprintf("tesseract: LayerNorm width %d not divisible by q=%d", h, p.Shape.Q))
	}
	return &LayerNorm{H: h, Eps: 1e-5, p: p}
}

// Params returns nil: Eq. 13 normalisation is parameter-free.
func (l *LayerNorm) Params() []*nn.Param { return nil }

// Forward normalises the local block x of shape [m̂, H/q].
func (l *LayerNorm) Forward(x *tensor.Matrix) *tensor.Matrix {
	p := l.p
	ws := p.W.Workspace()
	ph := x.Phantom()
	sq := ws.GetUninitMatch(x.Rows, x.Cols, ph)
	tensor.MulTo(sq, x, x)
	packed := rowStats(p, x, sq)
	ws.Put(sq)

	invN := 1 / float64(l.H)
	xhat := ws.GetUninitMatch(x.Rows, x.Cols, ph)
	inv := ws.GetUninitMatch(x.Rows, 1, ph)
	p.W.Compute(float64(x.Size()) * compute.FlopsPerNorm)
	if !ph {
		for i := 0; i < x.Rows; i++ {
			mean := packed.Data[2*i] * invN
			meanSq := packed.Data[2*i+1] * invN
			variance := meanSq - mean*mean
			iv := 1 / math.Sqrt(variance+l.Eps)
			inv.Data[i] = iv
			row := x.Data[i*x.Cols : (i+1)*x.Cols]
			orow := xhat.Data[i*x.Cols : (i+1)*x.Cols]
			for j, v := range row {
				orow[j] = (v - mean) * iv
			}
		}
	}
	ws.Put(packed)
	l.xhat = xhat
	l.invstd = inv
	return xhat
}

// Backward applies Eq. 14 to the local gradient block dy.
func (l *LayerNorm) Backward(dy *tensor.Matrix) *tensor.Matrix {
	p := l.p
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.xhat.Phantom()
	prod := ws.GetUninitMatch(dy.Rows, dy.Cols, ph)
	tensor.MulTo(prod, dy, l.xhat)
	packed := rowStats(p, prod, dy)
	ws.Put(prod)

	invN := 1 / float64(l.H)
	out := ws.GetUninitMatch(dy.Rows, dy.Cols, ph)
	p.W.Compute(float64(dy.Size()) * compute.FlopsPerNorm)
	if !ph {
		for i := 0; i < dy.Rows; i++ {
			dotXhat := packed.Data[2*i] * invN
			sumDy := packed.Data[2*i+1] * invN
			iv := l.invstd.Data[i]
			drow := dy.Data[i*dy.Cols : (i+1)*dy.Cols]
			xrow := l.xhat.Data[i*dy.Cols : (i+1)*dy.Cols]
			orow := out.Data[i*dy.Cols : (i+1)*dy.Cols]
			for j, dv := range drow {
				orow[j] = (dv - xrow[j]*dotXhat - sumDy) * iv
			}
		}
	}
	ws.Put(packed)
	return out
}

// rowStats all-reduces the per-row sums of two local matrices along the grid
// row in a single fused [m̂, 2] message, as the paper suggests for the X/X²
// pair. The packed message is a workspace buffer the caller must Put; the
// all-reduce runs in place on it.
func rowStats(p *Proc, a, b *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	p.W.Compute(float64(a.Size()+b.Size()) * compute.FlopsPerAdd)
	packed := ws.GetUninitMatch(a.Rows, 2, a.Phantom() || b.Phantom())
	tensor.RowSumsIntoCol(packed, 0, a)
	tensor.RowSumsIntoCol(packed, 1, b)
	return p.Row.AllReduceInto(p.W, packed, packed)
}
