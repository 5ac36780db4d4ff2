package dist

import (
	"fmt"

	"repro/internal/tensor"
)

// Worker is one simulated rank. All methods must be called from the
// goroutine Run started for this rank; the clock is private to it except at
// collective rendezvous points.
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
	// plan); busy accumulates the seconds this rank spent on its own work —
	// compute plus issued sends — since BeginStep (or ResetClocks). Total −
	// busy is wait: time parked on collectives or inbound messages. busy
	// matters because synchronized collectives drag every member's clock to
	// the straggler's pace, so per-rank step totals equalise and cannot
	// identify the straggler; busy time can.
	step      int
	slow      float64
	busy      float64
	stepStart float64
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
// monitor attached, reports the step's (total, busy) wall-clock split.
func (w *Worker) EndStep() {
	if w.c.monitor != nil {
		w.c.monitor.record(w.rank, w.step, w.clock-w.stepStart, w.busy)
	}
}

// park blocks until the finisher of the round this worker registered on, or
// abort, deposits a token in its slot; on abort it unwinds the worker.
func (w *Worker) park() {
	<-w.wake
	w.c.checkAbort()
}

// refuseSolo panics on a solo cluster, where the peer of a point-to-point
// transfer never runs.
func (c *Cluster) refuseSolo(op string) {
	if c.solo {
		panic("dist: " + op + " on a solo cluster, which runs rank 0 alone")
	}
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

// Busy returns the simulated seconds this rank has spent on its own work —
// compute plus issued sends, never time parked on a collective — since the
// timing window opened: the last BeginStep or ResetClocks. It never exceeds
// Clock over the same window. Call it from the worker's own goroutine, or
// between Runs.
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
	t := flops / w.c.cost.FLOPS
	if w.slow != 1 {
		t *= w.slow
	}
	w.clock += t
	w.busy += t
}

// ChargeGEMM charges the 2·m·n·k flops of an m×k by k×n multiply.
func (w *Worker) ChargeGEMM(m, n, k float64) {
	t := 2 * m * n * k / w.c.cost.FLOPS
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
	return 8 * int64(m.Rows) * int64(m.Cols)
}

// Send delivers m to rank dst. It never blocks (mailboxes are unbounded);
// the matrix is handed over by pointer, so the sender must not use it
// afterwards. The sender's clock pays the full α + Bβ transfer.
func (w *Worker) Send(dst int, m *tensor.Matrix) {
	w.c.refuseSolo("Send")
	if dst < 0 || dst >= len(w.c.workers) {
		panic(fmt.Sprintf("dist: send to rank %d outside world of %d", dst, len(w.c.workers)))
	}
	w.c.checkAbort()
	beta := w.c.cost.BetaIntra
	if w.c.node(w.rank) != w.c.node(dst) {
		beta = w.c.cost.BetaInter
	}
	bytes := matrixBytes(m)
	t := w.c.cost.sendTime(bytes, beta)
	if w.c.fault != nil {
		if bf, ea := w.c.fault.linkPerturbPair(w.rank, dst, w.step); bf != 1 || ea != 0 {
			t = t*bf + ea
		}
	}
	w.clock += t
	w.busy += t
	w.c.stats.record(w.rank, statSend, 1, bytes)
	w.c.mail.box(w.rank, dst).put(packet{m: m, clock: w.clock})
}

// Recv blocks until a matrix from rank src arrives and returns it. The
// receiver's clock advances to the message's arrival time (it cannot see
// data before the sender finished pushing it).
func (w *Worker) Recv(src int) *tensor.Matrix {
	w.c.refuseSolo("Recv")
	if src < 0 || src >= len(w.c.workers) {
		panic(fmt.Sprintf("dist: recv from rank %d outside world of %d", src, len(w.c.workers)))
	}
	p, ok := w.c.mail.box(src, w.rank).take(w.c.abort)
	if !ok {
		panic(abortSignal{})
	}
	if p.clock > w.clock {
		w.clock = p.clock
	}
	return p.m
}
