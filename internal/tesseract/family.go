package tesseract

import (
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func init() {
	parallel.Register(parallel.Spec{
		Name: "tesseract",
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			return NewFamily(w, l), nil
		},
		Arrangement: parallel.Mesh,
	})
}

// Family is Tesseract's implementation of the family-agnostic model layer:
// A-distributed activations — rows over the slab in block-row order
// h = i + k·q, columns over the grid row (Figure 4a), so the View's layer
// norms sum their row statistics over the grid row (§3.2.2) — B-distributed
// weights, SUMMA linears and the queued §3.1 depth gradient
// synchronisation, behind parallel.Family.
type Family struct {
	parallel.View
	p *Proc
}

// NewFamily attaches the calling worker to the mesh of a validated layout —
// Tesseract's [q, q, d], or Optimus' [q, q], which is its d = 1 case under
// another name — and returns the family view. All ranks of the mesh must
// call it collectively.
func NewFamily(w *dist.Worker, l parallel.Layout) *Family {
	p := NewProc(w, l.Q, l.D)
	f := &Family{p: p}
	f.View = parallel.NewView(w, l, p.Slab, p.Row, &p.Grads, f)
	return f
}

// NewLinear builds a Tesseract-parallel linear layer.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	return NewLinear(f.p, in, out, act, bias, rng)
}

// Shards returns q: weights split their columns, and attention its heads,
// over the grid columns.
func (f *Family) Shards() int { return f.p.Shape.Q }

// NewLinearPair shards a sub-module's two weights as SUMMA linears: on a
// mesh both directions are the same layer.
func (f *Family) NewLinearPair(in, out parallel.Weight, act nn.Activation) (parallel.Layer, parallel.Layer) {
	return newLinear(f.p, in, act, true), newLinear(f.p, out, nn.ActNone, true)
}

// ForwardOnly opens or closes the rank's forward-only scope (Proc.ForwardOnly).
func (f *Family) ForwardOnly(on bool) { f.p.ForwardOnly(on) }
