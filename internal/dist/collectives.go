package dist

import (
	"fmt"

	"repro/internal/tensor"
)

// Handle is one in-flight nonblocking collective, returned by the
// I-variants (IBroadcastInto, IReduceInto, IAllReduceInto). The issuing
// call never blocks; Wait blocks until the operation completes, advances
// the caller's simulated clock to max(own compute, collective finish) —
// communication overlapped with compute costs max, not sum — and returns
// ownership of the borrowed buffers.
//
// Contract: every matrix handed to an I-collective (payload and
// destination) is borrowed until Wait returns — it must not be read,
// written, Put, or released in between; the workspace enforces the Put and
// ReleaseAll half of that rule by panicking. Wait must be called exactly
// once, from the issuing worker's goroutine; a second Wait panics, even
// through a copy of the Handle (the operation tracks which members have
// waited, and a generation stamp catches copies that outlive the
// operation). Handles are plain values: keep them on the stack, no
// allocation involved.
//
// Ordering: a worker's operations on one group — blocking or nonblocking —
// pair up with its peers' in per-worker issue order, so all members must
// issue the same sequence of collectives on a group, exactly as with the
// blocking API. Operations on one group serialise in simulated time (one
// pipeline channel per communicator); operations on different groups
// overlap freely.
type Handle struct {
	g        *Group
	w        *Worker
	r        *round
	gen      uint32
	idx      int
	finisher bool
	payload  *tensor.Matrix
	dst      *tensor.Matrix
	lent     *tensor.Matrix // IBroadcastLend: the root's payload, set by Wait
	waited   bool
	valid    bool
}

// Wait blocks until the collective completes, releases the borrowed
// buffers, and advances the caller's clock. It panics if called twice or on
// a zero Handle, and unwinds with the cluster abort if the cluster dies.
func (h *Handle) Wait() {
	if !h.valid {
		panic("dist: Wait on a zero or already-consumed Handle")
	}
	if h.waited || h.r.gen.Load() != h.gen || h.r.waited[h.idx] {
		panic("dist: Handle.Wait called twice (possibly through a copy of the Handle)")
	}
	h.waited = true
	h.r.waited[h.idx] = true
	if !h.finisher && !h.r.completed.Load() && h.g.register(h.w, h.r) {
		h.w.park()
	}
	h.r.settle(h.w)
	if h.dst == nil && h.r.kind == opBroadcast {
		h.lent = h.r.slots[h.r.root] // stays filed until the last member retires
	}
	ws := h.w.Workspace()
	ws.Release(h.payload)
	ws.Release(h.dst)
	h.g.retire(h.r)
}

// issueAsync files a nonblocking arrival and borrows the buffers it lends
// to the collective until Wait.
func (g *Group) issueAsync(w *Worker, kind opKind, root, idx int, payload, dst *tensor.Matrix) Handle {
	ws := w.Workspace()
	ws.Borrow(payload)
	ws.Borrow(dst)
	r, finisher := g.join(w, kind, root, idx, payload, dst, false)
	// r cannot be recycled before this member retires (which happens only
	// in Wait), so the generation read here is stable.
	return Handle{g: g, w: w, r: r, gen: r.gen.Load(), idx: idx, finisher: finisher, payload: payload, dst: dst, valid: true}
}

// runBlocking is the shared blocking path: join — registering for a wake-up
// in the same critical section — park until the round completes, settle the
// caller's clock and retire. The outcome itself already sits in the
// members' destinations.
func (g *Group) runBlocking(w *Worker, kind opKind, root, idx int, slot, dst *tensor.Matrix) {
	r, finisher := g.join(w, kind, root, idx, slot, dst, true)
	if !finisher {
		w.park()
	}
	r.settle(w)
	g.retire(r)
}

// mustRootIdx validates that root is a member and returns its slot.
func (g *Group) mustRootIdx(root int, kind opKind) int {
	ridx := g.Index(root)
	if ridx < 0 {
		panic(fmt.Sprintf("dist: %s root %d outside group %v", kind, root, g.ranks))
	}
	return ridx
}

// BroadcastInto distributes the root's payload into every member's dst.
// root is a cluster rank that must belong to the group; non-root callers
// pass payload == nil and a dst of the payload's shape — a receiver has to
// know the shape it is about to receive, exactly as with MPI_Bcast — and
// the root may pass its payload as dst to skip the self-copy. The member
// completing the operation copies the payload into every dst while the
// operation is still in flight, so in this destination-passing form (and
// IBroadcastInto after Wait) the root's buffer is never aliased once the call
// returns and the root may mutate it immediately; IBroadcastLend is the form
// that leaves receivers holding the root's buffer. Time is charged as a
// binomial tree. Returns dst.
func (g *Group) BroadcastInto(w *Worker, root int, payload, dst *tensor.Matrix) *tensor.Matrix {
	idx := g.mustIndex(w, opBroadcast)
	ridx := g.mustRootIdx(root, opBroadcast)
	if dst == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil dst to broadcast", w.rank))
	}
	g.runBlocking(w, opBroadcast, ridx, idx, payload, dst)
	return dst
}

// IBroadcastInto is the nonblocking BroadcastInto: it files the arrival and
// returns immediately; the copy into dst happens while the handle is in
// flight and is visible once Wait returns. Payload and dst are borrowed
// until Wait (see Handle).
func (g *Group) IBroadcastInto(w *Worker, root int, payload, dst *tensor.Matrix) Handle {
	idx := g.mustIndex(w, opBroadcast)
	ridx := g.mustRootIdx(root, opBroadcast)
	if dst == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil dst to broadcast", w.rank))
	}
	return g.issueAsync(w, opBroadcast, ridx, idx, payload, dst)
}

// IBroadcastLend is IBroadcastInto without the copy: the root passes its
// payload, every other member passes nil and no destination, and after Wait
// Handle.Lent is the root's own matrix on every member. The round is a
// broadcast like any other — it pairs with IBroadcastInto arrivals on the
// same group (those members receive their copy), and it is priced from the
// root's payload, so clocks, statistics and fault charges are the copying
// form's. The lent matrix is read-only for every member, the root included,
// and valid until the enclosing Run ends: the caller owns the argument that
// nobody writes it before then (see doc.go). A solo cluster cannot lend to a
// receiver — nothing there states the shape to price — so that panics.
func (g *Group) IBroadcastLend(w *Worker, root int, payload *tensor.Matrix) Handle {
	idx := g.mustIndex(w, opBroadcast)
	ridx := g.mustRootIdx(root, opBroadcast)
	if g.c.solo && payload == nil {
		panic(fmt.Sprintf("dist: rank %d would borrow a broadcast payload on a solo cluster, where no root runs to lend it", w.rank))
	}
	return g.issueAsync(w, opBroadcast, ridx, idx, payload, nil)
}

// Lent returns the matrix an IBroadcastLend lent this member: the root's
// payload, not a copy. It is nil before Wait and for every other collective.
func (h *Handle) Lent() *tensor.Matrix { return h.lent }

// ReduceInto sums every member's matrix into the root's dst (which may
// alias its m). The partial sums combine in the fixed association of a
// binomial tree over the group's virtual positions, so the result is
// schedule-independent down to the bit. Non-root members pass dst == nil
// and receive nil. Every member's m is fully consumed before the collective
// returns, so callers may overwrite their partials immediately — the
// contract that lets SUMMA reuse its partial buffers across iterations.
func (g *Group) ReduceInto(w *Worker, root int, m, dst *tensor.Matrix) *tensor.Matrix {
	idx := g.mustIndex(w, opReduce)
	ridx := g.mustRootIdx(root, opReduce)
	checkReduceInto(w, idx, ridx, m, dst)
	g.runBlocking(w, opReduce, ridx, idx, m, dst)
	return dst
}

// IReduceInto is the nonblocking ReduceInto. The member's m is borrowed
// until Wait — only then may the caller overwrite its partial — and the
// root's dst holds the finished sum once the root's Wait returns.
func (g *Group) IReduceInto(w *Worker, root int, m, dst *tensor.Matrix) Handle {
	idx := g.mustIndex(w, opReduce)
	ridx := g.mustRootIdx(root, opReduce)
	checkReduceInto(w, idx, ridx, m, dst)
	return g.issueAsync(w, opReduce, ridx, idx, m, dst)
}

func checkReduceInto(w *Worker, idx, ridx int, m, dst *tensor.Matrix) {
	if m == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil to reduce", w.rank))
	}
	if (idx == ridx) != (dst != nil) {
		panic(fmt.Sprintf("dist: reduce rank %d root=%v dst=%v — exactly the root must supply dst", w.rank, idx == ridx, dst != nil))
	}
}

// AllReduceInto sums every member's matrix into each member's own dst, in
// ReduceInto's binomial-tree association: one sum is computed once and
// copied, so the replicas are bit-identical. dst may alias m, giving an
// in-place all-reduce. Every member's buffers are exclusively owned again
// the moment the call returns. Time is charged as a bandwidth-optimal ring.
// Returns dst.
func (g *Group) AllReduceInto(w *Worker, m, dst *tensor.Matrix) *tensor.Matrix {
	idx := g.mustIndex(w, opAllReduce)
	checkAllReduceInto(w, m, dst)
	g.runBlocking(w, opAllReduce, -1, idx, m, dst)
	return dst
}

// IAllReduceInto is the nonblocking AllReduceInto — the building block of
// the DDP-style gradient sync: issue the reduction the moment a gradient is
// ready, keep computing, Wait at optimiser time. m and dst (which may alias
// m) are borrowed until Wait.
func (g *Group) IAllReduceInto(w *Worker, m, dst *tensor.Matrix) Handle {
	idx := g.mustIndex(w, opAllReduce)
	checkAllReduceInto(w, m, dst)
	return g.issueAsync(w, opAllReduce, -1, idx, m, dst)
}

func checkAllReduceInto(w *Worker, m, dst *tensor.Matrix) {
	if m == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil to allreduce", w.rank))
	}
	if dst == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil dst to allreduce", w.rank))
	}
}

// AllGatherInto gathers every member's equal-shaped block into each
// member's own dst, concatenated in the group's canonical order. The
// orientation follows dst's shape: [n·rows, cols] stacks the blocks
// vertically, [rows, n·cols] side by side. Every member's m is fully read
// before the call returns (no snapshot, no aliasing). Time is charged as a
// ring. Returns dst.
func (g *Group) AllGatherInto(w *Worker, m, dst *tensor.Matrix) *tensor.Matrix {
	idx := g.mustIndex(w, opAllGather)
	if m == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil to allgather", w.rank))
	}
	if dst == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil dst to allgather", w.rank))
	}
	n := len(g.ranks)
	vcat := dst.Rows == n*m.Rows && dst.Cols == m.Cols
	hcat := dst.Rows == m.Rows && dst.Cols == n*m.Cols
	if !vcat && !hcat {
		panic(fmt.Sprintf("dist: allgather dst %dx%d fits neither %dx%d nor %dx%d for %d blocks of %dx%d",
			dst.Rows, dst.Cols, n*m.Rows, m.Cols, m.Rows, n*m.Cols, n, m.Rows, m.Cols))
	}
	g.runBlocking(w, opAllGather, -1, idx, m, dst)
	return dst
}

// ReduceScatterInto sums every member's equal full-size partial m and
// scatters the sum by row blocks: member i's dst receives rows
// [i·m.Rows/n, (i+1)·m.Rows/n) of the total. The partials combine in
// ReduceInto's binomial-tree association rooted at the group's first member,
// so the outcome is bit-identical to ReduceInto(first member) followed by a
// row scatter — the property the seqpar family's memory saving rides on:
// the activation living after the collective is 1/n the size, without
// changing a single bit relative to the all-reduce schedule. m.Rows must
// divide by the group size; every member's m is fully consumed before the
// call returns. Time is charged as the first half of the bandwidth-optimal
// ring all-reduce. Returns dst.
func (g *Group) ReduceScatterInto(w *Worker, m, dst *tensor.Matrix) *tensor.Matrix {
	idx := g.mustIndex(w, opReduceScatter)
	checkReduceScatterInto(w, g, m, dst)
	g.runBlocking(w, opReduceScatter, -1, idx, m, dst)
	return dst
}

// IReduceScatterInto is the nonblocking ReduceScatterInto — issue the
// scatter-reduction the moment a partial is ready, keep computing, Wait
// before touching dst. m and dst are borrowed until Wait (see Handle).
func (g *Group) IReduceScatterInto(w *Worker, m, dst *tensor.Matrix) Handle {
	idx := g.mustIndex(w, opReduceScatter)
	checkReduceScatterInto(w, g, m, dst)
	return g.issueAsync(w, opReduceScatter, -1, idx, m, dst)
}

func checkReduceScatterInto(w *Worker, g *Group, m, dst *tensor.Matrix) {
	if m == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil to reduce-scatter", w.rank))
	}
	if dst == nil {
		panic(fmt.Sprintf("dist: rank %d passed nil dst to reduce-scatter", w.rank))
	}
	n := len(g.ranks)
	if m.Rows%n != 0 {
		panic(fmt.Sprintf("dist: reduce-scatter payload rows %d not divisible by group size %d", m.Rows, n))
	}
	if dst.Rows*n != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("dist: reduce-scatter dst %dx%d wants %dx%d for %d-way scatter of %dx%d",
			dst.Rows, dst.Cols, m.Rows/n, m.Cols, n, m.Rows, m.Cols))
	}
}

// Barrier blocks until every member arrives, then advances all clocks to
// the common post-barrier time. It moves no payload.
func (g *Group) Barrier(w *Worker) {
	idx := g.mustIndex(w, opBarrier)
	g.runBlocking(w, opBarrier, -1, idx, nil, nil)
}
