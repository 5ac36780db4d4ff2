package parallel

import (
	"repro/internal/dist"
	"repro/internal/tensor"
)

// Stack is one rank's stack of Transformer blocks with the input and
// output-gradient blocks a timed replay feeds it.
type Stack struct {
	Family Family
	Blocks []Layer
	X, DY  *tensor.Matrix
}

// NewPhantomStack builds the shape-only stack for a batch of whole
// sequences: layers phantom blocks and phantom X and DY of the rank's share
// of the [batch·seqLen, hidden] activation.
func NewPhantomStack(f Family, batch, seqLen, hidden, heads, layers int) *Stack {
	s := &Stack{Family: f, Blocks: make([]Layer, layers)}
	for i := range s.Blocks {
		s.Blocks[i] = f.NewBlockPhantom(hidden, heads, seqLen)
	}
	sl := f.Slice(batch*seqLen, hidden)
	s.X, s.DY = tensor.NewPhantom(sl.Rows, sl.Cols), tensor.NewPhantom(sl.Rows, sl.Cols)
	return s
}

// Forward runs X through the blocks.
func (s *Stack) Forward() {
	x := s.X
	for _, b := range s.Blocks {
		x = b.Forward(x)
	}
}

// Backward runs DY back through the blocks and drains the gradient
// synchronisations they deferred: Tesseract's §3.1 depth all-reduces overlap
// the backward work, and a timed backward includes that overlap.
func (s *Stack) Backward() {
	dy := s.DY
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		dy = s.Blocks[i].Backward(dy)
	}
	s.Family.DrainGradients()
}

// Replay is a layer stack built on every rank of a cluster, timed one phase
// at a time — the one timing scaffold: tables.RunRow measures a table row
// with it and internal/plan prices a candidate with it, so a prediction and
// its measurement are one program run twice.
type Replay struct {
	c      *dist.Cluster
	stacks []*Stack
}

// NewReplay runs build on every rank the cluster runs (untimed) and keeps
// the stacks. The cluster should be fresh and sized to the layout.
func NewReplay(c *dist.Cluster, build func(w *dist.Worker) (*Stack, error)) (*Replay, error) {
	r := &Replay{c: c, stacks: make([]*Stack, c.WorldSize())}
	err := c.Run(func(w *dist.Worker) error {
		s, err := build(w)
		r.stacks[w.Rank()] = s
		return err
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Cluster returns the replay's cluster, for what a phase left on it (Overlap).
func (r *Replay) Cluster() *dist.Cluster { return r.c }

// Phase opens a timing window (ResetClocks), runs one phase on every rank's
// stack and returns the cluster's largest clock.
func (r *Replay) Phase(run func(s *Stack)) (float64, error) {
	r.c.ResetClocks()
	if err := r.c.Run(func(w *dist.Worker) error {
		run(r.stacks[w.Rank()])
		return nil
	}); err != nil {
		return 0, err
	}
	return r.c.MaxClock(), nil
}

// StepClocks is one timed training step: the simulated seconds of each
// phase (the paper's forward-time/backward-time split) and how much of their
// sum rank 0 spent on its own arithmetic (dist.Worker.Busy) — the rest is
// communication it could not hide.
type StepClocks struct {
	Forward, Backward, Busy float64
}

// Step times one training step as two phases: the forward pass, then — in a
// fresh window — the backward pass, which first re-runs the forward when
// recompute is set (activation checkpointing, how memory-constrained runs at
// the paper's sizes execute).
func (r *Replay) Step(recompute bool) (StepClocks, error) {
	rank0 := r.stacks[0].Family.Worker()
	var st StepClocks
	var err error
	if st.Forward, err = r.Phase((*Stack).Forward); err != nil {
		return st, err
	}
	st.Busy = rank0.Busy()
	if st.Backward, err = r.Phase(func(s *Stack) {
		if recompute {
			s.Forward()
		}
		s.Backward()
	}); err != nil {
		return st, err
	}
	st.Busy += rank0.Busy()
	return st, nil
}
