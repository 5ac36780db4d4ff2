package parallel

import (
	"repro/internal/dist"
	"repro/internal/tensor"
)

// SetBeforeRound installs f to run before every round a collect or a
// restore issues (nil removes it); set it only between cluster runs.
func SetBeforeRound(f func(w *dist.Worker)) { beforeRound = f }

// Held exposes the footprint each rank recorded in its last Step or Forward
// phase, indexed by rank (zero where a solo cluster built no stack), to the
// external tests that compare a phantom replay with its real twin.
func (r *Replay) Held() []int64 {
	out := make([]int64, len(r.stacks))
	for i, s := range r.stacks {
		if s != nil {
			out[i] = s.held
		}
	}
	return out
}

// Landed reports the parameters landed since the last drain and those the
// rank's layers declared (Expect), for the tests that hold every parameter
// to one landing per backward pass.
func (q *Grads) Landed() (landed, expected int) { return q.landed, q.expected }

// GradsOf returns the Grads a family's layers land on.
func GradsOf(f Family) *Grads { return f.(interface{ grads() *Grads }).grads() }

func (v *View) grads() *Grads { return v.Grads }

// Retained returns the Q, K, V and probability buffers the attention core
// holds for its backward pass.
func (a *Attention) Retained() []*tensor.Matrix {
	var out []*tensor.Matrix
	for _, m := range []*tensor.Matrix{a.core.q, a.core.k, a.core.v} {
		if m != nil {
			out = append(out, m)
		}
	}
	return append(out, a.core.probs...)
}
