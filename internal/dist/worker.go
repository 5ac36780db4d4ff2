package dist

import "repro/internal/tensor"

// Worker is one simulated rank and the one home of its state: clock, busy
// and overlap accounts, booked traffic, step-sample ring and failure. Each
// field's one writer is the goroutine acting for this rank (its own frame,
// or a round it finishes); the cluster-wide views fold over the workers
// between Runs. All methods must be called from the goroutine Run started
// for this rank; the clock is private to it except at collective rendezvous
// points.
type Worker struct {
	c     *Cluster
	rank  int
	clock float64 // simulated seconds since the last ResetClocks
	ws    *tensor.Workspace

	// wake is this worker's parking slot: a collective that has to block
	// registers the worker on the round and receives one token here, and
	// only the round's finisher (or abort) ever sends. Capacity 2 so that
	// neither sender can block: at most one finisher token is outstanding —
	// a worker waits on one round at a time — plus abort's single token.
	wake chan struct{}

	// Overlap accounting, maintained by the collective wait path: commTotal
	// is the simulated comm time of every collective this worker took part
	// in, commHidden the part of it that elapsed while the worker was off
	// computing (nonblocking issue → Wait). Both reset with ResetClocks.
	commTotal  float64
	commHidden float64

	// Step telemetry and fault state. step is the index the driving loop
	// last passed to BeginStep (0 for loops that never call it); slow is the
	// fault plan's compute-time factor for that step (always 1 without a
	// plan); busy accumulates the seconds this rank spent computing since
	// BeginStep (or ResetClocks). Total − busy is wait: time parked on
	// collectives. busy matters because synchronized collectives drag every
	// member's clock to the straggler's pace, so per-rank step totals
	// equalise and cannot identify the straggler; busy time can.
	step      int
	slow      float64
	busy      float64
	stepStart float64

	// ops is the traffic booked on this rank: every round it finished
	// (Group.price), by operation kind. It survives ResetClocks.
	ops [nOpKinds]OpStats

	// ring holds the last Window step samples EndStep recorded for an
	// attached Monitor (nil without one); n counts every sample ever
	// recorded, so the ring index is n mod len(ring).
	ring []StepSample
	n    int

	// failure is the error or panic this rank's function ended a Run with
	// (nil if it never failed). A failure poisons the cluster, so it is
	// written at most once.
	failure *Failure

	_ [64]byte // keep neighbouring ranks' records off one cache line
}

// BeginStep opens a telemetry window for one training step: it records the
// step index (which also drives the fault plan's activation windows),
// resolves this rank's compute slowdown for the step, and snapshots the
// clock. Loops that never call it run at step 0 with no telemetry.
func (w *Worker) BeginStep(step int) {
	w.step = step
	if w.c.fault != nil {
		w.slow = w.c.fault.computeFactor(w.rank, step)
	}
	w.stepStart = w.clock
	w.busy = 0
}

// EndStep closes the window opened by BeginStep and, when the cluster has a
// monitor attached, records the step's (total, busy) wall-clock split in
// this rank's ring.
func (w *Worker) EndStep() {
	if w.ring != nil {
		w.record(w.step, w.clock-w.stepStart, w.busy)
	}
}

// record files one step sample in the ring.
func (w *Worker) record(step int, total, busy float64) {
	w.ring[w.n%len(w.ring)] = StepSample{Step: step, Total: total, Busy: busy}
	w.n++
}

// samples returns how many samples the ring currently holds.
func (w *Worker) samples() int {
	if w.n < len(w.ring) {
		return w.n
	}
	return len(w.ring)
}

// last returns the j-th most recent sample (j = 0 is the newest).
func (w *Worker) last(j int) StepSample {
	return w.ring[(w.n-1-j)%len(w.ring)]
}

// book adds one operation of the given kind to this rank's traffic.
func (w *Worker) book(op opKind, messages, bytes int64) {
	e := &w.ops[op]
	e.Calls++
	e.Messages += messages
	e.Bytes += bytes
}

// park blocks until the finisher of the round this worker registered on, or
// abort, deposits a token in its slot; on abort it unwinds the worker.
func (w *Worker) park() {
	<-w.wake
	w.c.checkAbort()
}

// Rank returns the cluster rank.
func (w *Worker) Rank() int { return w.rank }

// Clock returns this worker's simulated seconds since the last ResetClocks.
// Like every Worker method it must be called from the worker's own
// goroutine. Ranks that need to agree on a time exactly must exchange it as
// data (all-gather the per-rank clocks and reduce locally) rather than read
// each other's clocks — that is how the serving runtime stamps batch
// completions identically on every rank.
func (w *Worker) Clock() float64 { return w.clock }

// Busy returns the simulated seconds this rank has spent computing — never
// time parked on a collective — since the timing window opened: the last
// BeginStep or ResetClocks. It never exceeds Clock over the same window.
// Call it from the worker's own goroutine, or between Runs.
func (w *Worker) Busy() float64 { return w.busy }

// Cluster returns the owning cluster.
func (w *Worker) Cluster() *Cluster { return w.c }

// Workspace returns this worker's buffer pool, creating it on first use. It
// persists across cluster runs, so steady-state training steps recycle every
// panel, partial and activation instead of allocating. Like every Worker
// method it must be called from the worker's own goroutine; see
// tensor.Workspace for the ownership and lifetime rules.
func (w *Worker) Workspace() *tensor.Workspace {
	if w.ws == nil {
		w.ws = tensor.NewWorkspace()
	}
	return w.ws
}

// Compute advances the simulated clock by flops at the model's FLOPS rate,
// stretched by any active compute fault on this rank.
func (w *Worker) Compute(flops float64) {
	t := flops / w.c.machine.Cost.FLOPS
	if w.slow != 1 {
		t *= w.slow
	}
	w.clock += t
	w.busy += t
}

// matrixBytes prices a matrix by shape (phantoms cost the same as real
// data — that is the whole point of phantom mode).
func matrixBytes(m *tensor.Matrix) int64 {
	if m == nil {
		return 0
	}
	return tensor.ElemBytes * int64(m.Rows) * int64(m.Cols)
}
