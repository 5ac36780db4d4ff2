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

	// held is the footprint the rank recorded at the end of its last Step or
	// Forward phase (see footprint).
	held int64
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

// footprint is the bytes this rank holds across the phases it has run: k
// copies of its parameter shards (phantom or real — a shape is enough), the
// given inputs, which live outside the pool, and the workspace's high-water
// mark. k belongs to the phase: 4 for a training step — value, gradient and
// Adam's two moments, what nn.Param and nn.Adam allocate — 1 for a forward
// that only reads the weights.
func (s *Stack) footprint(k int64, inputs ...*tensor.Matrix) int64 {
	var elems int64
	for _, b := range s.Blocks {
		for _, p := range b.Params() {
			elems += k * int64(p.Value.Size())
		}
	}
	for _, m := range inputs {
		elems += int64(m.Size())
	}
	return 8*elems + s.Family.Worker().Workspace().Stats().HighWaterBytes
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
// phase (the paper's forward-time/backward-time split), how much of their
// sum rank 0 spent on its own arithmetic (dist.Worker.Busy) — the rest is
// communication it could not hide — and the bytes the heaviest rank held.
type StepClocks struct {
	Forward, Backward, Busy float64
	// MemoryBytes is the largest footprint over the ranks the replay ran
	// (one on a solo cluster, all on a full one): parameters with their
	// training state, the input and output-gradient blocks, and the
	// workspace high-water between the step boundaries. A family's rank 0
	// is never lighter than its peers — on a mesh it sits on grid row 0,
	// which owns the biases — so a solo replay reports the full cluster's
	// largest.
	MemoryBytes int64
}

// Step times one training step as two phases: the forward pass, then — in a
// fresh window — the backward pass, which first re-runs the forward when
// recompute is set (activation checkpointing, how memory-constrained runs at
// the paper's sizes execute). The step has a trainer's boundaries
// (Family.EndStep, host-only, so no clock moves): checkpointing drops the
// first forward's activations before the recompute forward checks out its
// own — without recompute the backward needs them, and there is none — and
// the step ends after the backward and its gradient drain.
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
			s.Family.EndStep()
			s.Forward()
		}
		s.Backward()
		s.Family.EndStep()
		s.held = s.footprint(4, s.X, s.DY)
	}); err != nil {
		return st, err
	}
	st.Busy += rank0.Busy()
	st.MemoryBytes = r.largestHeld()
	return st, nil
}

// Forward times one inference pass — the forward phase alone, Backward left
// zero — and charges the rank what serving holds: its weights once, no
// gradients or optimiser state, the input and the forward's high-water.
func (r *Replay) Forward() (StepClocks, error) {
	var st StepClocks
	var err error
	if st.Forward, err = r.Phase(func(s *Stack) {
		s.Forward()
		s.Family.EndStep()
		s.held = s.footprint(1, s.X)
	}); err != nil {
		return st, err
	}
	st.Busy = r.stacks[0].Family.Worker().Busy()
	st.MemoryBytes = r.largestHeld()
	return st, nil
}

// largestHeld is the heaviest footprint the ranks recorded; a solo cluster
// built only rank 0's stack.
func (r *Replay) largestHeld() int64 {
	var max int64
	for _, s := range r.stacks {
		if s != nil && s.held > max {
			max = s.held
		}
	}
	return max
}
