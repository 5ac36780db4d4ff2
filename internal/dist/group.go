package dist

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Group is a communicator over a fixed, ordered set of cluster ranks. The
// rank list passed to Cluster.Group is the canonical order: AllGatherInto
// concatenates blocks in it, Index maps a cluster rank to its slot. Members
// must invoke the same sequence of collectives on a group — blocking calls
// and nonblocking issues count alike, in per-member program order; the
// runtime checks that the arrivals pairing into one operation agree on the
// kind and root.
type Group struct {
	c     *Cluster
	ranks []int
	index map[int]int
	beta  float64 // per-byte cost of the slowest link the group spans

	// quorum is how many arrivals complete a round: every member's, or on a
	// solo cluster the one rank that runs.
	quorum int

	mu    sync.Mutex
	open  []*round // incomplete operations, oldest first
	spare []*round // retired rounds, recycled to keep collectives off the allocator
	made  int      // rounds allocated so far: len(open) + len(spare) + those being read

	// lastFinish is the simulated time the group's previous operation
	// completed. Operations on one group serialise behind it — the group
	// models a single pipeline channel over its links — while operations
	// on different groups (a mesh row versus its columns, say) may overlap
	// freely, which is what the double-buffered SUMMA schedules exploit.
	lastFinish float64

	vdata [][]float64 // finish()-local scratch: slot data in virtual tree order
	tree  []float64   // finish()-local scratch: treeSumInto's per-level partials
}

// opKind names the collective an arrival wants to run; arrivals pairing
// into one round must agree on it. There is one kind per collective the
// statistics record, under the same value and name, so a finished round
// books its traffic under statOp(kind).
type opKind uint8

const (
	opBroadcast     = opKind(statBroadcast)
	opReduce        = opKind(statReduce)
	opAllReduce     = opKind(statAllReduce)
	opAllGather     = opKind(statAllGather)
	opReduceScatter = opKind(statReduceScatter)
	opBarrier       = opKind(statBarrier)
)

func (k opKind) String() string { return statNames[k] }

// round is one collective operation in flight: every member contributes its
// clock and payload/destination slots, and the last member to arrive
// computes the outcome — data movement, summation, time and statistics —
// exactly once, under the group lock. Because the whole outcome is a pure
// function of the slots (sums combine in virtual binomial-tree order, never
// in arrival order), results are bit-identical across runs and identical to
// the distributed tree schedule this engine replaced.
//
// The life of one member's arrival:
//
//	arrive   join files clock and slots under g.mu; the last arrival is the
//	         finisher and runs finish before it lets go of the lock
//	register a member that has to block for the outcome appends itself to
//	         r.parked — a blocking call inside join's critical section, a
//	         Handle.Wait that finds the round still open under a second,
//	         short one; completed is set under the same lock, so a member
//	         either registers before completion or sees it and never parks
//	park     the member receives one token from its own Worker.wake slot —
//	         nothing shared, so 64 parked ranks touch 64 different locks
//	wake     the finisher, after dropping g.mu, deposits exactly one token
//	         per registered member (r.parked is frozen once completed is set,
//	         and r cannot recycle before the finisher itself retires)
//	retire   each member reads what it needs and retires; the last one
//	         returns the round to the spare list
//
// A nonblocking issue is the same arrival without the register/park half:
// it fills its slot and returns a Handle, and the member collects the
// outcome at Wait.
//
// Tokens and registrations pair one to one, so a run that ends cleanly
// leaves every slot empty. Abort (Cluster.abortWith) raises an atomic flag
// and drops one extra token into every worker's slot; whoever wakes checks
// the flag and unwinds. A token nobody consumes — abort's to a worker that
// never parks again, or a finisher's to a member abort already unwound — is
// harmless: it can only exist on a poisoned cluster, which never runs again.
type round struct {
	kind    opKind
	root    int // group index of the root, -1 for rootless ops
	arrived int
	parked  []*Worker // members the finisher must wake; capacity n, never regrown
	exited  atomic.Int32
	filled  []bool
	waited  []bool // per-member: a nonblocking handle already waited this slot
	clocks  []float64
	steps   []int // per-member step index at arrival, for fault activation
	slots   []*tensor.Matrix
	dsts    []*tensor.Matrix

	// gen increments every time the round is recycled, so a stale Handle
	// (kept past its Wait while the round moved on) is detected instead of
	// silently corrupting a live operation.
	gen atomic.Uint32

	completed atomic.Bool

	// commBase is the time the operation actually starts (latest member
	// arrival and the group channel both ready), newClock its completion
	// time. newClock − commBase is the comm time the overlap statistics
	// attribute to the operation.
	commBase float64
	newClock float64
}

func newGroup(c *Cluster, ranks []int) *Group {
	g := &Group{
		c:     c,
		ranks: append([]int(nil), ranks...),
		index: make(map[int]int, len(ranks)),
		beta:  c.cost.BetaIntra,
	}
	g.quorum = len(g.ranks)
	if c.solo {
		g.quorum = 1
	}
	for i, r := range g.ranks {
		if _, dup := g.index[r]; dup {
			panic(fmt.Sprintf("dist: duplicate rank %d in group %v", r, g.ranks))
		}
		g.index[r] = i
		if c.node(r) != c.node(g.ranks[0]) {
			g.beta = c.cost.BetaInter
		}
	}
	return g
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the members in canonical order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Index returns the slot of a cluster rank in the canonical order, or −1
// if the rank is not a member.
func (g *Group) Index(rank int) int {
	if i, ok := g.index[rank]; ok {
		return i
	}
	return -1
}

// mustIndex resolves the calling worker's slot, panicking for non-members.
func (g *Group) mustIndex(w *Worker, op opKind) int {
	idx, ok := g.index[w.rank]
	if !ok {
		panic(fmt.Sprintf("dist: rank %d is not a member of group %v (%s)", w.rank, g.ranks, op))
	}
	return idx
}

// join files the caller's arrival for its next operation on this group: the
// oldest open round this member has not joined yet, or a fresh one. It
// never blocks. If the arrival completes the round, the caller runs finish
// inline and, once the group lock is dropped, wakes the registered members —
// after the unlock so that they do not wake into a lock the finisher still
// holds. With park set, a caller that did not complete the round is
// registered for a wake-up and must park. Returns the round and whether the
// caller was the finisher.
func (g *Group) join(w *Worker, kind opKind, root, idx int, slot, dst *tensor.Matrix, park bool) (*round, bool) {
	w.c.checkAbort()
	g.mu.Lock()
	var r *round
	for _, cand := range g.open {
		if !cand.filled[idx] {
			r = cand
			break
		}
	}
	if r == nil {
		r = g.newRound(kind, root)
		g.open = append(g.open, r)
	}
	if r.kind != kind || r.root != root {
		g.mu.Unlock()
		panic(fmt.Sprintf("dist: rank %d joined %s(root %d) while group %v is running %s(root %d)",
			w.rank, kind, rootRank(g, root), g.ranks, r.kind, rootRank(g, r.root)))
	}
	r.filled[idx] = true
	r.clocks[idx] = w.clock
	r.steps[idx] = w.step
	r.slots[idx] = slot
	r.dsts[idx] = dst
	r.arrived++
	last := r.arrived == g.quorum
	if last {
		// Members fill rounds oldest-first, so a complete round is
		// necessarily the oldest open one.
		if g.open[0] != r {
			g.mu.Unlock()
			panic(fmt.Sprintf("dist: group %v completed %s out of order", g.ranks, kind))
		}
		copy(g.open, g.open[1:])
		g.open[len(g.open)-1] = nil
		g.open = g.open[:len(g.open)-1]
		g.finishOrUnlock(w.rank, r)
		r.completed.Store(true)
	} else if park {
		r.parked = append(r.parked, w)
	}
	g.mu.Unlock()
	if last {
		for _, p := range r.parked {
			p.wake <- struct{}{}
		}
	}
	return r, last
}

func rootRank(g *Group, rootIdx int) int {
	if rootIdx < 0 {
		return -1
	}
	return g.ranks[rootIdx]
}

// register files w for a wake-up on a round it joined without blocking and
// now has to wait for. It reports false when the round completed first, in
// which case no token is coming and the caller must not park.
func (g *Group) register(w *Worker, r *round) bool {
	g.mu.Lock()
	open := !r.completed.Load()
	if open {
		r.parked = append(r.parked, w)
	}
	g.mu.Unlock()
	return open
}

// settle advances the caller's clock to the completed operation's finish
// time and accounts how much of the operation's comm time the caller's own
// compute hid.
func (r *round) settle(w *Worker) {
	if total := r.newClock - r.commBase; total > 0 {
		hidden := w.clock - r.commBase
		if hidden < 0 {
			hidden = 0
		} else if hidden > total {
			hidden = total
		}
		w.commTotal += total
		w.commHidden += hidden
	}
	if r.newClock > w.clock {
		w.clock = r.newClock
	}
}

// newRound recycles a spare round, growing the pool first if none is idle.
// The caller must hold g.mu.
func (g *Group) newRound(kind opKind, root int) *round {
	if len(g.spare) == 0 {
		g.growRounds()
	}
	n := len(g.ranks)
	s := len(g.spare)
	r := g.spare[s-1]
	g.spare[s-1] = nil
	g.spare = g.spare[:s-1]
	r.kind, r.root = kind, root
	r.arrived, r.parked = 0, r.parked[:0]
	r.exited.Store(0)
	r.gen.Add(1)
	for i := 0; i < n; i++ {
		r.filled[i] = false
		r.waited[i] = false
		r.clocks[i] = 0
		r.steps[i] = 0
		r.slots[i], r.dsts[i] = nil, nil
	}
	r.completed.Store(false)
	r.commBase, r.newClock = 0, 0
	return r
}

// growRounds doubles the group's pool of rounds (one round the first time),
// carving the new rounds' per-member state from one allocation per field.
// How many rounds a group has in flight at once is bounded by its members'
// program, but how near a run comes to the bound depends on how far the
// host lets one member run ahead of another: a pool that grows by one
// allocates at rare, timing-dependent moments for as long as the group
// lives (a Hidden-256 tesseract [2,2,2] step leaves each column group with
// three rounds after warm-up, and some of them want a fourth somewhere in
// the next 150 steps). Doubling has the fourth in hand when the third is
// made. open and spare get room for every round made, so neither join nor
// retire regrows them. The caller must hold g.mu.
func (g *Group) growRounds() {
	n := len(g.ranks)
	k := max(1, g.made)
	g.made += k
	g.open = slices.Grow(g.open, g.made-len(g.open))
	g.spare = slices.Grow(g.spare, g.made-len(g.spare))
	rounds := make([]round, k)
	flags := make([]bool, 2*k*n)
	clocks := make([]float64, k*n)
	steps := make([]int, k*n)
	mats := make([]*tensor.Matrix, 2*k*n)
	parked := make([]*Worker, k*n)
	for i := range rounds {
		r := &rounds[i]
		r.filled, r.waited, flags = flags[:n:n], flags[n:2*n:2*n], flags[2*n:]
		r.clocks, clocks = clocks[:n:n], clocks[n:]
		r.steps, steps = steps[:n:n], steps[n:]
		r.slots, r.dsts, mats = mats[:n:n], mats[n:2*n:2*n], mats[2*n:]
		r.parked, parked = parked[:0:n], parked[n:]
		g.spare = append(g.spare, r)
	}
}

// retire signals that the caller is done reading r. The last member to
// retire returns the round to the spare list; until then recycling is
// blocked, so other members can still read the outcome safely. A member
// unwound by an abort never retires — that round is simply dropped to the
// garbage collector along with the poisoned cluster.
func (g *Group) retire(r *round) {
	if int(r.exited.Add(1)) != g.quorum {
		return
	}
	// Drop payload references now rather than at reuse: a group that goes
	// quiet must not pin its last collective's matrices.
	for i := range r.slots {
		r.slots[i], r.dsts[i] = nil, nil
	}
	g.mu.Lock()
	g.spare = append(g.spare, r)
	g.mu.Unlock()
}

// finishOrUnlock runs finish for join and, should finish panic (mismatched
// payload shapes, a nil root payload), releases g.mu on the way out. The
// round then never completes: members parked on it are woken by the abort the
// panic becomes, and members still holding a Handle must be able to take the
// lock in register to park and meet that abort too.
func (g *Group) finishOrUnlock(rank int, r *round) {
	finished := false
	defer func() {
		if !finished {
			g.mu.Unlock()
		}
	}()
	g.finish(rank, r)
	finished = true
}

// finish computes a completed round's outcome exactly once, under g.mu:
// data movement and summation (move), the post-op clock, and the traffic
// statistics. It runs on whichever member arrived last, but everything it
// computes is a pure function of the slots, so the outcome is independent
// of scheduling.
func (g *Group) finish(rank int, r *round) {
	n := len(g.ranks)
	r.commBase = maxClock(r.clocks)
	if g.lastFinish > r.commBase {
		r.commBase = g.lastFinish
	}
	var b, gathered int64
	if g.c.solo {
		b, gathered = g.soloBytes(r, g.index[rank])
	} else {
		b, gathered = g.move(r)
	}
	cost := &g.c.cost
	var wire float64      // the operation's α–β time
	var msgs, bytes int64 // the traffic it books
	switch r.kind {
	case opBroadcast, opReduce:
		wire = cost.broadcastTime(n, b, g.beta)
		msgs, bytes = int64(n-1), int64(n-1)*b
	case opAllReduce:
		wire = cost.allReduceTime(n, b, g.beta)
		msgs, bytes = 2*int64(n-1), 2*int64(n-1)*b
	case opAllGather:
		wire = cost.allGatherTime(n, b, g.beta)
		msgs, bytes = int64(n)*int64(n-1), int64(n-1)*gathered
	case opReduceScatter:
		wire = cost.reduceScatterTime(n, b, g.beta)
		msgs, bytes = int64(n)*int64(n-1), int64(n-1)*b
	case opBarrier:
		wire = cost.barrierTime(n)
	}
	r.newClock = r.commBase + wire
	g.c.stats.record(rank, statOp(r.kind), msgs, bytes)
	if f := g.c.fault; f != nil {
		// The operation runs at the latest member step (faults activate by
		// the furthest-along participant's window). Degraded links stretch
		// the wire time, transient collective failures add their bounded
		// retry/backoff stall, and the perturbed completion time carries into
		// lastFinish — a sick link backs up the whole group channel.
		step := r.steps[0]
		for _, s := range r.steps[1:] {
			if s > step {
				step = s
			}
		}
		if bf, ea := f.linkPerturb(g.ranks, step); bf != 1 || ea != 0 {
			r.newClock = r.commBase + (r.newClock-r.commBase)*bf + ea
		}
		if d := f.collectiveDelay(g.ranks, step); d != 0 {
			r.newClock += d
		}
	}
	g.lastFinish = r.newClock
}

// move performs a completed round's data movement — copies into every
// destination, sums in tree order — and returns the byte counts finish
// prices the operation by: b, the payload one member contributes (the
// largest block of an all-gather), and gathered, the all-gather's blocks
// added up (zero for every other kind).
func (g *Group) move(r *round) (b, gathered int64) {
	switch r.kind {
	case opBroadcast:
		m := r.slots[r.root]
		if m == nil {
			panic(fmt.Sprintf("dist: broadcast root %d passed a nil payload", rootRank(g, r.root)))
		}
		for _, d := range r.dsts {
			if d == nil || d == m {
				// A member borrowing the payload (IBroadcastLend) and the
				// root broadcasting into its own payload (the in-place
				// idiom) need no copy.
				continue
			}
			tensor.CopyInto(d, m)
		}
		return matrixBytes(m), 0

	case opReduce:
		g.combineInto(r, r.dsts[r.root])
		return matrixBytes(r.slots[r.root]), 0

	case opAllReduce:
		dst := r.dsts[0]
		g.combineInto(r, dst)
		for _, d := range r.dsts[1:] {
			tensor.CopyInto(d, dst)
		}
		return matrixBytes(r.slots[0]), 0

	case opAllGather:
		for _, s := range r.slots {
			sb := matrixBytes(s)
			gathered += sb
			if sb > b {
				b = sb
			}
		}
		g.gatherInto(r)
		return b, gathered

	case opReduceScatter:
		g.scatterCombineInto(r)
		return matrixBytes(r.slots[0]), 0
	}
	return 0, 0
}

// soloBytes stands in for move on a solo cluster. Nothing moves: the round
// holds the arrival of the one running rank, in slot idx, alone, and what it
// lent must be phantom — a real matrix would come back unsummed, so it is
// refused here rather than priced. The byte counts come from that rank's own
// arguments, which the destination-passing API makes sufficient: every
// member knows an operation's shape from its own payload, or for a broadcast
// receiver its destination.
func (g *Group) soloBytes(r *round, idx int) (b, gathered int64) {
	m, dst := r.slots[idx], r.dsts[idx]
	for _, x := range [...]*tensor.Matrix{m, dst} {
		if x != nil && !x.Phantom() {
			panic(fmt.Sprintf("dist: %s of a real %dx%d matrix on a solo cluster, which prices phantom schedules only", r.kind, x.Rows, x.Cols))
		}
	}
	if m == nil {
		m = dst
	}
	b = matrixBytes(m)
	return b, int64(len(g.ranks)) * b
}

// combineInto sums every member's slot into dst using the association of a
// binomial reduction tree rooted at the round's root (virtual position 0),
// exactly as the per-edge tree this engine replaced: partial sums pair up
// like a binary counter, every element accumulates with individually
// rounded adds, and the result is bit-identical regardless of which member
// finishes the round. dst may alias the root's slot (in-place reduce): each
// element is written only after being read.
func (g *Group) combineInto(r *round, dst *tensor.Matrix) {
	n := len(g.ranks)
	root := r.root
	if root < 0 {
		root = 0
	}
	ref := r.slots[root]
	for i, s := range r.slots {
		if s == nil {
			panic(fmt.Sprintf("dist: rank %d passed nil to %s", g.ranks[i], r.kind))
		}
		if !s.SameShape(ref) || s.Phantom() != ref.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d contributed %dx%d (phantom=%v), root holds %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], s.Rows, s.Cols, s.Phantom(), ref.Rows, ref.Cols, ref.Phantom()))
		}
	}
	if n == 1 {
		tensor.CopyInto(dst, ref)
		return
	}
	if ref.Phantom() {
		return
	}
	if n == 2 {
		tensor.AddTo(dst, ref, r.slots[(root+1)%2])
		return
	}
	vdata := g.vdata[:0]
	for v := 0; v < n; v++ {
		vdata = append(vdata, r.slots[(v+root)%n].Data)
	}
	g.vdata = vdata
	treeSumInto(dst.Data, vdata, g.partials())
	// Drop the data references now that the sum is done: an idle group must
	// not pin its last reduction's matrices (mirrors retire's slot clearing).
	for i := range g.vdata {
		g.vdata[i] = nil
	}
	g.vdata = g.vdata[:0]
}

// treeChunk is how many elements treeSumInto carries through the whole tree
// before moving on: 4 KB per partial, so even a 64-way sum's partials and the
// chunk being read stay in L1.
const treeChunk = 512

// partials returns the scratch treeSumInto keeps its partial sums in — one
// chunk per tree level strictly between the members' own data and the top —
// allocated on the group's first real (non-phantom) reduction. The caller
// must hold g.mu; the group has at least two members.
func (g *Group) partials() []float64 {
	if g.tree == nil {
		g.tree = make([]float64, (bits.Len(uint(len(g.ranks)))-2)*treeChunk)
	}
	return g.tree
}

// treeSumInto writes dd[e] = Σ_v vdata[v][e] in the association of a
// binomial reduction tree over the virtual order vdata (n = len(vdata) ≥ 2):
// partial sums pair up like a binary counter — member v carries into level
// 1, 2, … for every trailing one bit of v — and every element accumulates
// with individually rounded adds. Because the association is per-element,
// summing a pre-sliced row window is bit-identical to summing the whole
// matrix and slicing the range after — the property that makes
// reduce-scatter ≡ reduce + scatter down to the bit — and running the
// counter over a chunk of elements at a time with the vector add kernel is
// bit-identical to running it per element (treeSumScalar in the tests).
//
// Level 0 of the counter is the members' own data, the top level
// (⌊log₂ n⌋, always occupied at the end) lives in dd itself, and scratch
// holds one chunk for each level in between (see partials). Callers pass
// windows of equal length len(dd); dd may alias vdata[0], which is consumed
// before anything is written to dd.
func treeSumInto(dd []float64, vdata [][]float64, scratch []float64) {
	n := len(vdata)
	top := bits.Len(uint(n)) - 1
	var stack [16][]float64 // level l holds a partial of 2^l members; 16 levels cover any practical group
	for lo := 0; lo < len(dd); lo += treeChunk {
		hi := min(lo+treeChunk, len(dd))
		stack[top] = dd[lo:hi]
		for l := 1; l < top; l++ {
			stack[l] = scratch[(l-1)*treeChunk:][:hi-lo]
		}
		for v := 0; v < n; v++ {
			x := vdata[v][lo:hi]
			carry := bits.TrailingZeros(^uint(v)) // v's carry stops at this level
			if carry == 0 {
				stack[0] = x
				continue
			}
			sum := stack[carry]
			tensor.AddSlices(sum, stack[0], x)
			for l := 1; l < carry; l++ {
				tensor.AddSlices(sum, stack[l], sum)
			}
		}
		// Fold the partials the counter is left holding, lowest level first,
		// each into the next occupied level's own buffer; the last is dd's.
		l := bits.TrailingZeros(uint(n))
		t := stack[l]
		for l++; l <= top; l++ {
			if n&(1<<l) != 0 {
				tensor.AddSlices(stack[l], stack[l], t)
				t = stack[l]
			}
		}
	}
}

// scatterCombineInto computes the reduce-scatter outcome: member i's dst
// receives row block i of the binomial-tree sum (rooted at group index 0,
// exactly ReduceInto's association with the first member as root) of the
// equal full-size payloads. No full-size intermediate exists — each block is
// tree-summed straight into its owner's destination, which is bit-identical
// to reducing the whole matrix and scattering because the tree association
// is per-element.
func (g *Group) scatterCombineInto(r *round) {
	n := len(g.ranks)
	ref := r.slots[0]
	br := ref.Rows / n
	for i, s := range r.slots {
		if s == nil {
			panic(fmt.Sprintf("dist: rank %d passed nil to %s", g.ranks[i], r.kind))
		}
		if !s.SameShape(ref) || s.Phantom() != ref.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d contributed %dx%d (phantom=%v), member 0 holds %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], s.Rows, s.Cols, s.Phantom(), ref.Rows, ref.Cols, ref.Phantom()))
		}
		d := r.dsts[i]
		if d.Rows != br || d.Cols != ref.Cols || d.Phantom() != ref.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d dst %dx%d (phantom=%v) wants %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], d.Rows, d.Cols, d.Phantom(), br, ref.Cols, ref.Phantom()))
		}
	}
	if ref.Phantom() {
		return
	}
	if n == 1 {
		tensor.CopyInto(r.dsts[0], ref)
		return
	}
	vdata := g.vdata[:0]
	for v := 0; v < n; v++ {
		vdata = append(vdata, nil)
	}
	g.vdata = vdata
	blockLen := br * ref.Cols
	scratch := g.partials()
	for i := 0; i < n; i++ {
		off := i * blockLen
		for v := 0; v < n; v++ {
			vdata[v] = r.slots[v].Data[off : off+blockLen]
		}
		treeSumInto(r.dsts[i].Data, vdata, scratch)
	}
	for i := range g.vdata {
		g.vdata[i] = nil
	}
	g.vdata = g.vdata[:0]
}

// gatherInto copies every member's slot into every member's destination in
// canonical order. The orientation follows the destination shape: a
// [n·rows, cols] destination stacks the blocks vertically, a [rows, n·cols]
// destination side by side (shapes are validated at issue time).
func (g *Group) gatherInto(r *round) {
	n := len(g.ranks)
	block := r.slots[0]
	for _, d := range r.dsts {
		byRows := d.Rows == n*block.Rows && d.Cols == block.Cols
		for v, s := range r.slots {
			if byRows {
				d.SetSubMatrix(v*block.Rows, 0, s)
			} else {
				d.SetSubMatrix(0, v*block.Cols, s)
			}
		}
	}
}
