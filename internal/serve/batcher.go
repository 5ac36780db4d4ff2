package serve

import "slices"

// The continuous micro-batcher. One trace instance runs per rank, inside
// one cluster Run, and every rank executes the identical pure event loop:
// the only inputs are the arrival times (shared data) and each batch's
// service duration, which the caller's exec closure derives from an
// all-gather of the per-rank simulated clocks — also shared data. Nothing
// here reads goroutine-scheduling-dependent state, which is what makes
// batch formation deterministic and identical on every rank.
//
// Time semantics: `now` is the server's logical clock on the arrival time
// base. It advances to arrival instants while idle, to batch-close instants
// when sealing, and by the measured service duration across each forward.
// Queue slots free at batch close; at a single instant, arrivals are
// admitted (or rejected) before the close frees slots, so admission counts
// are exact at the QueueDepth bound.
type trace struct {
	cfg  Config
	arr  []float64
	req  []Request
	stat []BatchStat

	// queue is a ring of QueueDepth slots holding the admitted request ids
	// in FIFO order: queued of them, the oldest at head. Sealing a batch of
	// k moves head by k, so a batch costs O(k), not O(backlog).
	queue        []int
	head, queued int
	batch        []int // the batch being handed to exec (reused)
	next         int   // first arrival not yet admitted or rejected
	now          float64
}

// reset readies t for a new trace over arrivals, reusing the storage of
// the last one: a Server runs one trace per rank per Serve call.
func (t *trace) reset(cfg Config, arrivals []float64) {
	t.cfg, t.arr = cfg, arrivals
	t.req = resize(t.req, len(arrivals))
	t.stat = t.stat[:0]
	t.queue = resize(t.queue, cfg.QueueDepth)
	t.batch = resize(t.batch, cfg.MaxBatch)[:0]
	t.head, t.queued, t.next, t.now = 0, 0, 0, 0
}

// resize returns s at length n, reusing its storage when it has room. The
// elements are left as they were: every caller overwrites them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// queuedAt is the id of the i-th oldest queued request.
func (t *trace) queuedAt(i int) int { return t.queue[(t.head+i)%len(t.queue)] }

// admit processes every arrival at or before t, in arrival order: each
// either takes a queue slot or is rejected on the spot.
func (t *trace) admit(tm float64) {
	for t.next < len(t.arr) && t.arr[t.next] <= tm {
		i := t.next
		t.next++
		t.req[i] = Request{ID: i, Arrive: t.arr[i], Class: -1}
		if t.queued >= len(t.queue) {
			t.req[i].Rejected = true
			continue
		}
		t.queue[(t.head+t.queued)%len(t.queue)] = i
		t.queued++
	}
}

// nextBatch forms and seals the next batch, advancing `now` to its close
// instant, or returns nil when every arrival has been drained. A batch
// closes at the earlier of (a) the oldest member's arrival plus the latency
// budget and (b) the instant it fills to MaxBatch — but never before `now`:
// after a busy window the backlog closes immediately.
func (t *trace) nextBatch() []int {
	t.admit(t.now)
	if t.queued == 0 {
		if t.next >= len(t.arr) {
			return nil
		}
		t.now = t.arr[t.next] // idle: jump to the next arrival
		t.admit(t.now)
	}
	deadline := t.req[t.queuedAt(0)].Arrive + t.cfg.LatencyBudget
	if deadline < t.now {
		deadline = t.now
	}
	// Let arrivals inside the wait window join (or bounce off) the queue.
	for t.queued < t.cfg.MaxBatch && t.next < len(t.arr) && t.arr[t.next] <= deadline {
		t.admit(t.arr[t.next])
	}
	k := t.queued
	closeAt := deadline
	if k >= t.cfg.MaxBatch {
		k = t.cfg.MaxBatch
		// Full before the deadline: seal when the filling request arrived
		// (or right now, if the backlog was already there).
		if at := t.req[t.queuedAt(k-1)].Arrive; at > t.now {
			closeAt = at
		} else {
			closeAt = t.now
		}
	}
	t.batch = t.batch[:0]
	for i := range k {
		t.batch = append(t.batch, t.queuedAt(i))
	}
	t.head = (t.head + k) % len(t.queue)
	t.queued -= k
	t.now = closeAt
	for _, id := range t.batch {
		t.req[id].BatchClose = closeAt
	}
	return t.batch
}

// complete records the sealed batch's measured service duration: replies
// are stamped, `now` crosses the forward, and arrivals that landed during
// it are admitted against the freed queue.
func (t *trace) complete(padded int, dur float64) {
	t.now += dur
	for _, id := range t.batch {
		t.req[id].Reply = t.now
	}
	t.stat = append(t.stat, BatchStat{
		Size: len(t.batch), Padded: padded,
		Close: t.req[t.batch[0]].BatchClose, Done: t.now,
	})
	t.admit(t.now)
}

// report folds the drained trace into a Report, on fresh copies of its
// records: callers keep reports, and the trace's storage serves the next.
func (t *trace) report() *Report {
	r := &Report{Requests: slices.Clone(t.req), Batches: slices.Clone(t.stat), SimSeconds: t.now}
	for _, q := range t.req {
		if q.Rejected {
			r.Rejected++
		} else {
			r.Admitted++
			r.Completed++
		}
	}
	if len(t.stat) == 0 {
		r.SimSeconds = 0
	}
	return r
}

// run drives the event loop over arrivals to exhaustion, on t's storage.
// exec runs one sealed batch (request ids, in order) and returns its service
// duration in simulated seconds; padded reports the row count the forward
// actually ran for the batch statistics. Every rank of a cluster must run
// identical cfg and arrivals and an exec whose returned duration is
// identical on every rank (derive it from all-gathered clocks).
func (t *trace) run(cfg Config, arrivals []float64, exec func(ids []int) (padded int, dur float64)) {
	t.reset(cfg, arrivals)
	for {
		b := t.nextBatch()
		if b == nil {
			return
		}
		padded, dur := exec(b)
		t.complete(padded, dur)
	}
}

// runTrace is run on a new trace.
func runTrace(cfg Config, arrivals []float64, exec func(ids []int) (padded int, dur float64)) *trace {
	t := new(trace)
	t.run(cfg, arrivals, exec)
	return t
}
