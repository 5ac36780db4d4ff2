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

// RecomputeStep is Step(true) spelled out as a trainer with activation
// checkpointing runs it, for the test that holds Step to it: the forward in
// a window of its own; then, in a fresh window, the step boundary that drops
// its activations, the forward again, the backward and its drain, the
// boundary and the footprint.
func (r *Replay) RecomputeStep() (StepClocks, error) {
	rank0 := r.stacks[0].F.Worker()
	var st StepClocks
	var err error
	if st.Forward, err = r.Phase(func(s *Stack) { s.Forward(s.X) }); err != nil {
		return st, err
	}
	st.Busy = rank0.Busy()
	if st.Backward, err = r.Phase(func(s *Stack) {
		s.F.EndStep()
		s.Forward(s.X)
		s.Backward(s.DY)
		s.F.EndStep()
		s.held = s.footprint(4, s.X, s.DY)
	}); err != nil {
		return st, err
	}
	st.Busy += rank0.Busy()
	st.MemoryBytes = r.largestHeld()
	return st, nil
}
