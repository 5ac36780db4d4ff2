package tesseract

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// MLP is the Tesseract-parallel Transformer feed-forward module (§3.2.1,
// Figure 5a): parameters [h/q, 4h/q] and [4h/q, h/q] per processor, inputs
// and outputs A-distributed [b·s/(dq), h/q].
type MLP struct {
	H   int
	Fc1 *Linear
	Fc2 *Linear
}

// NewMLP draws Fc1, Fc2 from rng in the same order as nn.NewMLP.
func NewMLP(p *Proc, h int, rng *tensor.RNG) *MLP {
	return &MLP{
		H:   h,
		Fc1: NewLinear(p, h, 4*h, nn.ActGELU, true, rng),
		Fc2: NewLinear(p, 4*h, h, nn.ActNone, true, rng),
	}
}

// NewMLPPhantom builds the shape-only variant.
func NewMLPPhantom(p *Proc, h int) *MLP {
	return &MLP{
		H:   h,
		Fc1: NewLinearPhantom(p, h, 4*h, nn.ActGELU, true),
		Fc2: NewLinearPhantom(p, 4*h, h, nn.ActNone, true),
	}
}

// Params returns the shards this processor owns.
func (m *MLP) Params() []*nn.Param {
	return append(m.Fc1.Params(), m.Fc2.Params()...)
}

// Forward applies both projections to the local block.
func (m *MLP) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	return m.Fc2.Forward(p, m.Fc1.Forward(p, x))
}

// Backward propagates through both projections, recycling the inner
// gradient once Fc1 has consumed it.
func (m *MLP) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	d1 := m.Fc2.Backward(p, dy)
	dx := m.Fc1.Backward(p, d1)
	p.W.Workspace().Put(d1)
	return dx
}
