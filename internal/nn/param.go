// Package nn is the serial reference implementation of every layer the
// distributed schemes parallelise: linear, layer normalisation, multi-head
// attention, the Transformer MLP and block, plus losses and Adam, whose
// moments live on the Param. All distributed packages (tesseract, megatron,
// optimus) are tested for numerical agreement against this package, and Adam
// is reused by the distributed trainers (it acts elementwise on local
// shards, so the same code drives both worlds).
package nn

import (
	"math"

	"repro/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator and
// the Adam moments of the Adam that last stepped or restored it: a shard's
// whole training state lives on the shard.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	m, v *tensor.Matrix // Adam's first and second moments, owned by opt
	opt  *Adam
}

// NewParam wraps a value matrix with a zeroed gradient of the same shape. A
// phantom parameter is NewPhantomParam's.
func NewParam(name string, value *tensor.Matrix) *Param {
	if value.Phantom() {
		panic("nn: NewParam of a phantom value " + name + "; use NewPhantomParam")
	}
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Rows, value.Cols)}
}

// NewPhantomParam is a shape-only [rows, cols] parameter whose value and
// gradient headers share the Param's allocation: a phantom replay builds
// every parameter of its stack afresh.
func NewPhantomParam(name string, rows, cols int) *Param {
	p := &phantomParam{value: tensor.Matrix{Rows: rows, Cols: cols}, grad: tensor.Matrix{Rows: rows, Cols: cols}}
	p.Param = Param{Name: name, Value: &p.value, Grad: &p.grad}
	return &p.Param
}

// phantomParam is a phantom Param and its shape-only value and gradient in
// one allocation.
type phantomParam struct {
	Param
	value, grad tensor.Matrix
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// AccumGrad adds g into the gradient accumulator.
func (p *Param) AccumGrad(g *tensor.Matrix) { tensor.AddInPlace(p.Grad, g) }

// Adam implements the Adam optimiser with decoupled weight decay (AdamW),
// the configuration the paper's ViT experiment uses (lr 0.003, weight decay
// 0.3). It keeps only its hyper-parameters and step count; a parameter's
// moments live on the Param, allocated zeroed the first time this Adam
// steps it (or finds another Adam's moments there), so serial and
// distributed trainers stepping the same parameters evolve identically.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
}

// NewAdam returns an Adam optimiser with the usual defaults for unset
// moments (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// Step applies one Adam update to every parameter.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		if p.Value.Phantom() {
			continue
		}
		if p.opt != a {
			p.opt, p.m, p.v = a, nil, nil
		}
		if p.m == nil {
			p.m = tensor.New(p.Value.Rows, p.Value.Cols)
		}
		if p.v == nil {
			p.v = tensor.New(p.Value.Rows, p.Value.Cols)
		}
		// The vectorised kernel performs exactly the scalar update sequence
		// per element (see tensor.AdamUpdate) — trajectories are unchanged.
		tensor.AdamUpdate(p.Value, p.Grad, p.m, p.v, a.LR, a.Beta1, a.Beta2, a.Eps, a.WeightDecay, bc1, bc2)
	}
}

// StepCount returns the number of Adam steps taken so far — the clock the
// bias corrections run on. Checkpoints record it so a restored optimiser
// resumes with the same corrections.
func (a *Adam) StepCount() int { return a.t }

// SetStepCount rewinds or advances the bias-correction clock, as when
// restoring optimiser state from a checkpoint.
func (a *Adam) SetStepCount(t int) { a.t = t }

// Moments returns the first and second moment accumulators for p, or nils
// if this Adam has never stepped or restored p (or p is phantom).
func (a *Adam) Moments(p *Param) (m, v *tensor.Matrix) {
	if p.opt != a {
		return nil, nil
	}
	return p.m, p.v
}

// SetMoments installs moment accumulators for p, replacing any existing
// state. A nil m or v leaves that moment untouched (so the two can be
// installed in separate calls). Used when restoring from a checkpoint; the
// matrices are adopted, not copied.
func (a *Adam) SetMoments(p *Param, m, v *tensor.Matrix) {
	if p.opt != a {
		p.opt, p.m, p.v = a, nil, nil
	}
	if m != nil {
		p.m = m
	}
	if v != nil {
		p.v = v
	}
}
