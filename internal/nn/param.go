// Package nn is the serial reference implementation of every layer the
// distributed schemes parallelise: linear, layer normalisation, multi-head
// attention, the Transformer MLP and block, plus losses and Adam, whose
// moments live on the Param. All distributed packages (tesseract, megatron,
// optimus) are tested for numerical agreement against this package, and Adam
// is reused by the distributed trainers (it acts elementwise on local
// shards, so the same code drives both worlds).
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator and
// the Adam moments of the Adam that last stepped or restored it: a shard's
// whole training state lives on the shard.
//
// A parameter replicated over a group whose members split its optimiser
// state (a depth fibre's weight block) carries a row band (SetBand): the
// optimiser steps rows [lo, hi) only, against [hi-lo, Cols] moments, and
// marks the parameter stale, because its other rows are stepped by the
// other members. Whoever owns the group gathers the bands back into Value
// and calls Gathered; a layer reading a stale Value must not.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	m, v *tensor.Matrix // Adam's first and second moments, owned by opt
	opt  *Adam

	lo, hi int  // the row band the optimiser steps; hi == 0: every row
	stale  bool // Value holds only the band's rows current
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

// SetBand restricts the optimiser to rows [lo, hi) of the parameter: its
// moments become [hi-lo, Cols]. Call it before anything steps the
// parameter.
func (p *Param) SetBand(lo, hi int) {
	if lo < 0 || hi <= lo || hi > p.Value.Rows {
		panic(fmt.Sprintf("nn: band [%d, %d) of %s outside its %d rows", lo, hi, p.Name, p.Value.Rows))
	}
	p.lo, p.hi = lo, hi
}

// Band returns the rows [lo, hi) the optimiser steps: every row unless
// SetBand narrowed them.
func (p *Param) Band() (lo, hi int) {
	if p.hi == 0 {
		return 0, p.Value.Rows
	}
	return p.lo, p.hi
}

// Banded reports whether SetBand narrowed the optimiser to part of the rows.
func (p *Param) Banded() bool { return p.hi != 0 && p.hi-p.lo < p.Value.Rows }

// Stale reports whether only the band's rows of Value are current: an
// optimiser stepped the band (or a restore installed it) and no gather has
// filled in the other rows since.
func (p *Param) Stale() bool { return p.stale }

// MarkStale records that only the band's rows of Value are current.
func (p *Param) MarkStale() { p.stale = p.Banded() }

// Gathered records that every row of Value is current again.
func (p *Param) Gathered() { p.stale = false }

// BandRows returns the band's rows of m, a matrix of the parameter's
// shape (its Value or Grad), as a header over m's storage.
func (p *Param) BandRows(m *tensor.Matrix) tensor.Matrix {
	lo, hi := p.Band()
	return tensor.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
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
// The update is element-wise, so a banded parameter's band steps exactly as
// those rows of the whole would: depth replicas that each step one band and
// then gather the bands hold the bits of replicas that each stepped it all.
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

// Step applies one Adam update to every parameter: to a banded parameter's
// band only, which it leaves stale until the band's group gathers it.
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
		lo, hi := p.Band()
		if p.m == nil {
			p.m = tensor.New(hi-lo, p.Value.Cols)
		}
		if p.v == nil {
			p.v = tensor.New(hi-lo, p.Value.Cols)
		}
		// The vectorised kernel performs exactly the scalar update sequence
		// per element (see tensor.AdamUpdate) — trajectories are unchanged,
		// and a band's rows are updated exactly as the whole would be.
		value, grad := p.BandRows(p.Value), p.BandRows(p.Grad)
		tensor.AdamUpdate(&value, &grad, p.m, p.v, a.LR, a.Beta1, a.Beta2, a.Eps, a.WeightDecay, bc1, bc2)
		p.MarkStale()
	}
}

// StepCount returns the number of Adam steps taken so far — the clock the
// bias corrections run on. Checkpoints record it so a restored optimiser
// resumes with the same corrections.
func (a *Adam) StepCount() int { return a.t }

// SetStepCount rewinds or advances the bias-correction clock, as when
// restoring optimiser state from a checkpoint.
func (a *Adam) SetStepCount(t int) { a.t = t }

// Moments returns the first and second moment accumulators for p — over
// its band's rows, [hi-lo, Cols] — or nils if this Adam has never stepped
// or restored p (or p is phantom).
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
