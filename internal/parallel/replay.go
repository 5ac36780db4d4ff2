package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// Stack is one rank's Model without an embedding and a head — the paper's
// stack of Transformer blocks — with the input and output-gradient blocks a
// timed replay feeds it.
type Stack struct {
	Model
	X, DY *tensor.Matrix

	// held is the footprint the rank recorded at the end of its last Step or
	// Forward phase (see footprint).
	held int64
}

// NewPhantomStack builds the shape-only stack for a batch of whole
// sequences: NewModel's layers phantom blocks, and phantom X and DY of the
// rank's share of the [batch·seqLen, hidden] activation.
func NewPhantomStack(f Family, batch, seqLen, hidden, heads, layers int) *Stack {
	s := new(Stack)
	s.build(f, 0, seqLen, hidden, heads, layers, 0, nil, nil)
	sl := f.Slice(batch*seqLen, hidden)
	s.X, s.DY = tensor.NewPhantom(sl.Rows, sl.Cols), tensor.NewPhantom(sl.Rows, sl.Cols)
	return s
}

// footprint is the bytes this rank holds across the phases it has run: k
// copies of its parameter shards (phantom or real — a shape is enough), the
// given inputs, which live outside the pool, and the workspace's high-water
// mark. k belongs to the phase: 4 for a training step — value, gradient and
// Adam's two moments, what nn.Param and nn.Adam allocate — 1 for a forward
// that only reads the weights.
func (s *Stack) footprint(k int64, inputs ...*tensor.Matrix) int64 {
	var elems int64
	for _, l := range s.Blocks {
		for _, p := range l.Params() {
			elems += k * int64(p.Value.Size())
		}
	}
	for _, m := range inputs {
		elems += int64(m.Size())
	}
	return tensor.ElemBytes*elems + s.F.Worker().Workspace().Stats().HighWaterBytes
}

// Replay is a layer stack built on every rank a cluster runs, timed one
// phase at a time — the one timing scaffold: plan.Price (and tables.RunRow
// through it) prices with it, solo wherever rank 0 stands for every rank,
// and tables.OverlapStudy reads a full cluster's overlap after one window.
type Replay struct {
	c      *dist.Cluster
	stacks []*Stack

	// every is what each Phase hands the cluster — the method value
	// runPhase, bound once — so a timed phase allocates no closure.
	every func(w *dist.Worker) error
	phase func(s *Stack)

	// barrier is the clock agreement Forward ends with, built by the first
	// Forward on phantom operands, which every rank can share: a phantom
	// gather reads and writes no element.
	barrier *ClockSync
}

// NewReplay runs build on every rank the cluster runs (untimed) and keeps
// the stacks. The cluster should be fresh and sized to the layout.
func NewReplay(c *dist.Cluster, build func(w *dist.Worker) (*Stack, error)) (*Replay, error) {
	r := &Replay{c: c, stacks: make([]*Stack, c.WorldSize())}
	if err := c.Run(func(w *dist.Worker) error {
		s, err := build(w)
		r.stacks[w.Rank()] = s
		return err
	}); err != nil {
		return nil, err
	}
	r.every = r.runPhase
	return r, nil
}

// runPhase runs the current phase on the worker's stack.
func (r *Replay) runPhase(w *dist.Worker) error {
	r.phase(r.stacks[w.Rank()])
	return nil
}

// fit is the one rule of which [batch·seqLen, hidden] activations with heads
// attention heads a layout splits: rows over its row shards — tokens, so a
// shard may end mid-sequence, as Table 1's [4,4,2] row does — the width over
// a mesh side, and heads that divide the width over the attention's column
// shards (a mesh side, or every rank of a 1-D layout). It returns "" when l
// splits the activation, else the refusal's format over (l, rows, batch,
// seqLen, row shards, hidden, heads, shards): a constant, so Fits allocates
// nothing.
func fit(l Layout, batch, seqLen, hidden, heads int) (refusal string, rs, shards int) {
	rs, shards = l.RowShards(), l.Ranks
	if l.Q > 0 {
		shards = l.Q
	}
	switch {
	case (batch*seqLen)%rs != 0:
		refusal = "parallel: %[1]s cannot split %[2]d activation rows (batch %[3]d × sequence length %[4]d) %[5]d ways"
	case l.Q > 0 && hidden%shards != 0:
		refusal = "parallel: %[1]s cannot split hidden width %[6]d %[8]d ways (not divisible by the mesh side q=%[8]d)"
	case heads < 1 || hidden%heads != 0 || heads%shards != 0:
		refusal = "parallel: %[1]s cannot split hidden width %[6]d into %[7]d heads over %[8]d shards (not divisible)"
	}
	return refusal, rs, shards
}

// Fits reports whether l splits a [batch·seqLen, hidden] activation with
// heads attention heads: CheckActivation without the error, for the planner
// to ask of every layout it lists.
func Fits(l Layout, batch, seqLen, hidden, heads int) bool {
	refusal, _, _ := fit(l, batch, seqLen, hidden, heads)
	return refusal == ""
}

// CheckActivation refuses an activation l cannot split (Fits), naming the
// dimension, before anything builds a phantom stack that would panic on it.
func CheckActivation(l Layout, batch, seqLen, hidden, heads int) error {
	refusal, rs, shards := fit(l, batch, seqLen, hidden, heads)
	if refusal == "" {
		return nil
	}
	return fmt.Errorf(refusal, l, batch*seqLen, batch, seqLen, rs, hidden, heads, shards)
}

// NewPhantomReplay replays l's phantom stack (NewPhantomStack) on the cluster
// newCluster builds from cfg, sized to l. A [batch·seqLen, hidden]
// activation l cannot split is refused before the cluster is built
// (CheckActivation).
func NewPhantomReplay(newCluster func(dist.Config) *dist.Cluster, cfg dist.Config, l Layout, batch, seqLen, hidden, heads, layers int) (*Replay, error) {
	if err := CheckActivation(l, batch, seqLen, hidden, heads); err != nil {
		return nil, err
	}
	cfg.WorldSize = l.Ranks
	c := newCluster(cfg)
	rp, err := NewReplay(c, func(w *dist.Worker) (*Stack, error) {
		f, err := New(w, l)
		if err != nil {
			return nil, err
		}
		return NewPhantomStack(f, batch, seqLen, hidden, heads, layers), nil
	})
	if err != nil {
		c.Close()
	}
	return rp, err
}

// Cluster returns the replay's cluster, for what a phase left on it (Overlap).
func (r *Replay) Cluster() *dist.Cluster { return r.c }

// Phase opens a timing window (ResetClocks), runs one phase on every rank's
// stack and returns the cluster's largest clock.
func (r *Replay) Phase(run func(s *Stack)) (float64, error) {
	r.c.ResetClocks()
	return r.resume(run)
}

// resume is Phase in the window already open: the clocks carry on.
func (r *Replay) resume(run func(s *Stack)) (float64, error) {
	r.phase = run
	if err := r.c.Run(r.every); err != nil {
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

// Step times one training step as two phases: the forward pass, then the
// backward pass and its gradient drain, which with recompute (activation
// checkpointing, how memory-constrained runs at the paper's sizes execute)
// re-runs the forward first — charged by carrying the backward's window on
// from the forward just timed: a window starts from nothing ResetClocks does
// not zero on a replay's bare cluster, so a re-run would end where the timed
// forward ended, in clocks and in what it holds. The step's one boundary
// (Family.EndStep, host-only, so no clock moves) follows its drain.
func (r *Replay) Step(recompute bool) (StepClocks, error) {
	rank0 := r.stacks[0].F.Worker()
	var st StepClocks
	var err error
	if st.Forward, err = r.Phase(func(s *Stack) { s.Forward(s.X) }); err != nil {
		return st, err
	}
	st.Busy = rank0.Busy()
	backward := r.Phase
	if recompute {
		backward = r.resume
	}
	if st.Backward, err = backward((*Stack).trainBackward); err != nil {
		return st, err
	}
	st.Busy += rank0.Busy()
	st.MemoryBytes = r.largestHeld()
	return st, nil
}

// trainBackward is a training step's backward phase: the backward pass and
// its gradient drain, the step boundary, and the rank's footprint.
func (s *Stack) trainBackward() {
	s.Backward(s.DY)
	s.F.EndStep()
	s.held = s.footprint(4, s.X, s.DY)
}

// Forward times one inference pass as the server runs a batch — the forward
// phase, the step boundary and the clock agreement that ends every served
// batch (ClockSync), Backward left zero — and charges the rank what serving
// holds: its weights once, no gradients or optimiser state, the input and
// the forward's high-water.
func (r *Replay) Forward() (StepClocks, error) {
	if r.barrier == nil {
		r.barrier = newClockSync(r.c, tensor.NewPhantom)
	}
	var st StepClocks
	var err error
	if st.Forward, err = r.Phase(func(s *Stack) {
		s.Forward(s.X)
		s.F.EndStep()
		r.barrier.Now(s.F.Worker())
		s.held = s.footprint(1, s.X)
	}); err != nil {
		return st, err
	}
	st.Busy = r.stacks[0].F.Worker().Busy()
	st.MemoryBytes = r.largestHeld()
	return st, nil
}

// ClockSync is the barrier that ends every served batch: the ranks agree on
// the instant the batch finished by all-gathering their simulated clocks and
// taking the max locally, so every rank computes the identical value. The
// gather is charged to the clock like any collective, which is why a serving
// price (Replay.Forward) pays it too. One per rank on a live cluster: the
// world group is cached (Group allocates its key) and the two blocks are the
// gather's operands.
type ClockSync struct {
	world     *dist.Group
	clk, clks *tensor.Matrix // 1×1 own clock, [world,1] gathered
}

// NewClockSync builds one rank's clock agreement on c.
func NewClockSync(c *dist.Cluster) *ClockSync { return newClockSync(c, tensor.New) }

// newClockSync builds the agreement on operands from alloc: tensor.New for
// a live cluster, tensor.NewPhantom for a replay's priced-only gather.
func newClockSync(c *dist.Cluster, alloc func(rows, cols int) *tensor.Matrix) *ClockSync {
	return &ClockSync{world: c.WorldGroup(), clk: alloc(1, 1), clks: alloc(c.WorldSize(), 1)}
}

// Now runs the barrier and returns the largest clock the ranks brought to
// it — on phantom operands, which gather nothing, the rank's own. A world of
// one rank has nothing to agree on and pays nothing.
func (cs *ClockSync) Now(w *dist.Worker) float64 {
	m := w.Clock()
	if cs.clks.Rows == 1 {
		return m
	}
	if !cs.clk.Phantom() {
		cs.clk.Data[0] = m
	}
	cs.world.AllGatherInto(w, cs.clk, cs.clks)
	for _, v := range cs.clks.Data {
		m = max(m, v)
	}
	return m
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

// ReplayEach runs the n independent replays run(0) … run(n-1), at most
// runtime.GOMAXPROCS(0) of them at a time, and returns their results in index
// order. It is the one level of host parallelism above the rank goroutines:
// table rows, study points, planner validations and the planner's candidate
// prices (plan.Search, plan.SearchServing) all run through it. Every replay
// builds a cluster of its own, so concurrent ones share nothing and each
// result is what a loop over run would have produced. The calling goroutine
// is one of the runners and waits for the others, so no goroutine outlives
// the call.
//
// Indices are handed out in order and a failure only stops the hand-out, so
// every replay below a failed one still runs to its end: the error returned
// is that of the lowest failing index, as a sequential loop's would be.
func ReplayEach[T any](n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	runner := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if out[i], errs[i] = run(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), n); k > 1; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner()
		}()
	}
	runner()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
