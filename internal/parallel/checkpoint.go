package parallel

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ErrCheckpointCorrupt is wrapped by every integrity failure: a slot whose
// bytes no longer hash to the checksum CollectInto recorded. Restore
// verifies every checkpoint it is handed before the first round, so a
// snapshot damaged between collect and restore (a bad DIMM, a truncated
// transfer in the real-world analogue) fails loudly instead of silently
// training from garbage.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Checkpoint is one rank's share of a family-agnostic snapshot of a model:
// the rectangles of every weight and both Adam moments the rank holds, each
// placed in the canonical (serial) tensor, plus the primary pieces of one
// buddy rank — Gemini's in-memory checkpointing (SOSP '23), with the buddy
// on another node when the family spans nodes. Because the pieces are
// placed in canonical coordinates, the checkpoints collected under any
// registered family at any layout restore under any other, and a rank lost
// between collect and restore costs nothing its buddy did not keep.
//
// CollectInto leaves one Checkpoint on every collecting rank; a driver keeps
// them by rank and hands new rank j the checkpoint of the j-th surviving old
// rank (see Restore). A checkpoint holds 3 × tensor.ElemBytes bytes per
// element of its rank's rectangles and its buddy's primary pieces: about 2/p
// of the model for a family of p ranks, where a replica held the whole model.
type Checkpoint struct {
	// Step is the optimiser step count (Adam's bias-correction clock).
	Step int
	// Rank is the family rank that collected the checkpoint, Ranks the
	// family's rank count, and Keeps the rank whose primary pieces it also
	// holds (-1 in a one-rank family, which has no buddy).
	Rank, Ranks, Keeps int
	// Slots hold the pieces, in the model's State() order.
	Slots []CheckpointSlot

	// header views the buddy exchange's placement rounds: sent, received.
	header [2]tensor.Matrix
}

// CheckpointSlot is one canonical tensor's pieces with their Adam moments.
type CheckpointSlot struct {
	// Rows, Cols give the canonical shape.
	Rows, Cols int
	// Primary marks the collecting rank's own pieces as primary (State.
	// Primary): the ones it writes when the slot is assembled. Kept pieces
	// are always primary.
	Primary bool
	// Pieces locate the packed rectangles in the canonical tensor:
	// Pieces[:Own] are the collecting rank's, Pieces[Own:] its buddy's.
	Pieces []Piece
	Own    int
	// Value, M and V pack the pieces row-major, one after another, in a
	// 1×n matrix each.
	Value *tensor.Matrix
	M, V  *tensor.Matrix
	// Sum is a digest over the slot's placement, shapes and float bits,
	// recorded by CollectInto and checked by Verify/Restore. It lives in
	// memory only — nothing persists it, so the function behind it may
	// change. Zero means "no checksum" (a hand-built slot), which
	// verification skips.
	Sum uint64

	// windows are the own and kept parts of Value, M and V as matrices of
	// their own: what the buddy exchange sends and receives into. A round
	// whose window is empty is skipped on both sides.
	windows [2][3]tensor.Matrix
}

// Piece is one packed rectangle of a canonical tensor.
type Piece struct {
	// Row, Col locate the rectangle in the canonical tensor; Rows, Cols
	// are its extent.
	Row, Col, Rows, Cols int
	// Off is its first element in the slot's packed buffers.
	Off int
}

// contains reports whether the piece covers the state block's rectangle.
func (p Piece) contains(b StateBlock) bool {
	return p.Row <= b.GlobalRow && b.GlobalRow+b.Rows <= p.Row+p.Rows &&
		p.Col <= b.GlobalCol && b.GlobalCol+b.Cols <= p.Col+p.Cols
}

// sum hashes the slot: its canonical shape and placement, then the three
// tensors' shapes and every element's bit pattern, so a single flipped
// mantissa bit — or a silently reshaped buffer or moved piece — changes the
// digest.
func (e *CheckpointSlot) sum() uint64 {
	h := uint64(14695981039346656037)
	primary := uint64(0)
	if e.Primary {
		primary = 1
	}
	for _, x := range [...]int{e.Rows, e.Cols, e.Own, len(e.Pieces)} {
		h = sumWord(h, uint64(x))
	}
	h = sumWord(h, primary)
	for _, p := range e.Pieces {
		for _, x := range [...]int{p.Row, p.Col, p.Rows, p.Cols, p.Off} {
			h = sumWord(h, uint64(x))
		}
	}
	for _, m := range [...]*tensor.Matrix{e.Value, e.M, e.V} {
		h = sumWord(h, uint64(m.Rows))
		h = sumWord(h, uint64(m.Cols))
		h = sumFloats(h, m.Data)
	}
	if h == 0 {
		h = 1 // keep 0 meaning "no checksum"
	}
	return h
}

// sumWord folds one 64-bit word into the state: FNV-1a's xor-then-multiply
// taken a word at a time, with a rotate so that high input bits reach the
// low state bits too. Each step is a bijection of the state and of the word,
// so changing any one word always changes the digest.
func sumWord(h, x uint64) uint64 {
	return bits.RotateLeft64(h^x, 31) * 1099511628211
}

// sumFloats folds the bit patterns of xs into h. Every rank hashes its
// pieces on every collect, so the elements go round-robin onto four lanes
// whose multiplies overlap instead of queueing behind one another; the lanes
// fold into the state, in order, at the end.
func sumFloats(h uint64, xs []float64) uint64 {
	h0, h1, h2, h3 := h, h, h, h
	for ; len(xs) >= 4; xs = xs[4:] {
		h0 = sumWord(h0, math.Float64bits(xs[0]))
		h1 = sumWord(h1, math.Float64bits(xs[1]))
		h2 = sumWord(h2, math.Float64bits(xs[2]))
		h3 = sumWord(h3, math.Float64bits(xs[3]))
	}
	for _, x := range xs {
		h0 = sumWord(h0, math.Float64bits(x))
	}
	return sumWord(sumWord(sumWord(sumWord(h, h0), h1), h2), h3)
}

// Verify recomputes every slot's checksum and reports the first mismatch,
// wrapping ErrCheckpointCorrupt. Slots without a checksum (Sum == 0) are
// skipped.
func (ck *Checkpoint) Verify() error {
	for i := range ck.Slots {
		e := &ck.Slots[i]
		if e.Sum == 0 {
			continue
		}
		if got := e.sum(); got != e.Sum {
			return fmt.Errorf("parallel: slot %d (%dx%d): %w: checksum %#x, recorded %#x",
				i, e.Rows, e.Cols, ErrCheckpointCorrupt, got, e.Sum)
		}
	}
	return nil
}

// buddyShift is how far round the family's ranks a rank's buddy sits: rank
// r keeps the primary pieces of rank (r + shift) mod p. Half the family
// apart pairs the ranks up when p is even, and puts every buddy on another
// node once the family fills two nodes (p/2 ≥ m.GPUsPerNode); a family on
// more than one node but fewer than two full ones shifts by a node instead,
// which crosses nodes for every rank that does not wrap round — no placement
// can do better there, the first node holding more ranks than the rest.
func buddyShift(p int, m dist.Machine) int {
	s := p / 2
	if gpn := m.GPUsPerNode; p > gpn && s < gpn {
		s = gpn
	}
	return s
}

// prefixGroup returns the communicator over cluster ranks [0, n), in
// ascending order. The rank list is spelled on the stack
// (dist.Cluster.Group keeps no reference to it), so finding the cached group
// allocates nothing up to 64 ranks.
func prefixGroup(c *dist.Cluster, n int) *dist.Group {
	var buf [64]int
	ranks := buf[:0]
	for r := range n {
		ranks = append(ranks, r)
	}
	return c.Group(ranks...)
}

// pairGroup returns the two-member communicator of ranks a and b.
func pairGroup(c *dist.Cluster, a, b int) *dist.Group {
	return c.Group(min(a, b), max(a, b))
}

// beforeRound runs, when set, before every round a collect or a restore
// issues: the fault tests stop a rank there.
var beforeRound func(w *dist.Worker)

// enterRound calls beforeRound, if set.
func enterRound(w *dist.Worker) {
	if beforeRound != nil {
		beforeRound(w)
	}
}

// buddies is one rank's side of the buddy exchange: it sends its primary
// pieces to its keeper and receives the pieces of the rank it keeps.
type buddies struct {
	w            *dist.Worker
	rank         int
	keeps        int
	toKeeper     *dist.Group // {rank, keeper}
	fromKept     *dist.Group // {rank, keeps}
	sendFirstOut bool        // issue order: ascending root rank
}

func newBuddies(w *dist.Worker, p int) buddies {
	r := w.Rank()
	s := buddyShift(p, w.Cluster().Machine())
	keeps, keeper := (r+s)%p, (r-s+p)%p
	return buddies{
		w: w, rank: r, keeps: keeps,
		toKeeper:     pairGroup(w.Cluster(), r, keeper),
		fromKept:     pairGroup(w.Cluster(), r, keeps),
		sendFirstOut: r < keeps,
	}
}

// swap sends every non-empty outs[t] to the keeper and receives every
// non-empty ins[t] from the kept rank, all in flight at once. For each t the
// two rounds are issued in ascending root order — the order the partner
// issues them in when the two share one pair group — and then all are
// waited.
func (bx *buddies) swap(outs, ins []tensor.Matrix) {
	var hs [6]dist.Handle
	n := 0
	for t := range outs {
		for k := range 2 {
			if (k == 0) == bx.sendFirstOut {
				if out := &outs[t]; out.Size() > 0 {
					enterRound(bx.w)
					hs[n] = bx.toKeeper.IBroadcastInto(bx.w, bx.rank, out, out)
					n++
				}
			} else if in := &ins[t]; in.Size() > 0 {
				enterRound(bx.w)
				hs[n] = bx.fromKept.IBroadcastInto(bx.w, bx.keeps, nil, in)
				n++
			}
		}
	}
	for i := range n {
		hs[i].Wait()
	}
}

// CollectInto snapshots this rank's share of the model (and optimiser
// moments, when opt is non-nil) into ck, reusing ck's buffers when the
// pieces keep their sizes so per-step checkpointing reaches an allocation
// fixed point — given a model whose State walk is made once, as
// Model's is. Pass ck == nil to allocate a fresh checkpoint. Every
// rank of the family must call it collectively.
//
// The rank packs the rectangles it holds and swaps its primary pieces with
// its buddies over two-member groups: the piece counts, their placements,
// then per slot the value and both moments. Nothing is canonical-sized and
// no round spans the family.
func CollectInto(ck *Checkpoint, f Family, m Stater, opt *nn.Adam) (*Checkpoint, error) {
	if ck == nil {
		ck = &Checkpoint{}
	}
	slots := m.State()
	for i, s := range slots {
		if err := checkState(s); err != nil {
			return nil, fmt.Errorf("parallel: slot %d: %w", i, err)
		}
	}
	if len(ck.Slots) != len(slots) {
		if len(ck.Slots) != 0 {
			return nil, fmt.Errorf("parallel: checkpoint has %d slots, model has %d", len(ck.Slots), len(slots))
		}
		ck.Slots = make([]CheckpointSlot, len(slots))
	}
	w := f.Worker()
	p := f.Layout().Ranks
	ck.Step = 0
	if opt != nil {
		ck.Step = opt.StepCount()
	}
	ck.Rank, ck.Ranks, ck.Keeps = w.Rank(), p, -1
	for i, s := range slots {
		e := &ck.Slots[i]
		e.Rows, e.Cols, e.Primary = s.Rows, s.Cols, s.Primary && s.Param != nil
		e.Pieces = e.Pieces[:0]
		if s.Param != nil {
			for _, b := range s.Blocks {
				e.Pieces = append(e.Pieces, Piece{Row: b.GlobalRow, Col: b.GlobalCol, Rows: b.Rows, Cols: b.Cols})
			}
		}
		e.Own = len(e.Pieces)
	}
	var bx buddies
	if p > 1 {
		bx = newBuddies(w, p)
		ck.Keeps = bx.keeps
		bx.swapPlacements(ck)
	}
	for i, s := range slots {
		e := &ck.Slots[i]
		packPieces(e)
		var val, om, ov *tensor.Matrix
		if s.Param != nil {
			val = s.Param.Value
			if opt != nil {
				om, ov = opt.Moments(s.Param)
			}
		}
		for t, local := range [...]*tensor.Matrix{val, om, ov} {
			stageCollect(e, t, s, local)
		}
		if p > 1 {
			bx.swap(e.windows[0][:], e.windows[1][:])
		}
		e.Sum = e.sum()
	}
	return ck, nil
}

// swapPlacements sends the buddy the placement of this rank's primary
// pieces — first how many each slot has, then their rectangles — and appends
// the kept rank's to every slot's Pieces.
func (bx *buddies) swapPlacements(ck *Checkpoint) {
	ws := bx.w.Workspace()
	n := len(ck.Slots)
	counts := ws.GetUninit(1, 2*n) // [0, n): sent, [n, 2n): received
	sent := 0
	for i := range ck.Slots {
		e := &ck.Slots[i]
		c := 0
		if e.Primary {
			c = e.Own
		}
		counts.Data[i] = float64(c)
		sent += c
	}
	hdr := &ck.header
	hdr[0] = tensor.Matrix{Rows: 1, Cols: n, Data: counts.Data[:n]}
	hdr[1] = tensor.Matrix{Rows: 1, Cols: n, Data: counts.Data[n:]}
	bx.swap(hdr[:1], hdr[1:])
	kept := 0
	for _, c := range counts.Data[n:] {
		kept += int(c)
	}
	rects := ws.GetUninit(1, 4*(sent+kept))
	d := rects.Data
	for i := range ck.Slots {
		e := &ck.Slots[i]
		if !e.Primary {
			continue
		}
		for _, p := range e.Pieces[:e.Own] {
			d[0], d[1], d[2], d[3] = float64(p.Row), float64(p.Col), float64(p.Rows), float64(p.Cols)
			d = d[4:]
		}
	}
	hdr[0] = tensor.Matrix{Rows: 1, Cols: 4 * sent, Data: rects.Data[:4*sent]}
	hdr[1] = tensor.Matrix{Rows: 1, Cols: 4 * kept, Data: rects.Data[4*sent:]}
	bx.swap(hdr[:1], hdr[1:])
	d = rects.Data[4*sent:]
	for i := range ck.Slots {
		e := &ck.Slots[i]
		for range int(counts.Data[n+i]) {
			e.Pieces = append(e.Pieces, Piece{Row: int(d[0]), Col: int(d[1]), Rows: int(d[2]), Cols: int(d[3])})
			d = d[4:]
		}
	}
	ws.Put(counts, rects)
}

// packPieces assigns every piece its offset and sizes the slot's buffers
// to hold them all, reusing the buffers when the size is unchanged.
// Checkpoint buffers are plain allocations, not workspace buffers: they
// outlive the cluster that wrote them.
func packPieces(e *CheckpointSlot) {
	off, own := 0, 0
	for j := range e.Pieces {
		if j == e.Own {
			own = off
		}
		e.Pieces[j].Off = off
		off += e.Pieces[j].Rows * e.Pieces[j].Cols
	}
	if e.Own == len(e.Pieces) {
		own = off
	}
	fit := func(m *tensor.Matrix) *tensor.Matrix {
		if m != nil && m.Rows == 1 && m.Cols == off {
			return m
		}
		return tensor.New(1, off)
	}
	e.Value, e.M, e.V = fit(e.Value), fit(e.M), fit(e.V)
	for t, m := range [...]*tensor.Matrix{e.Value, e.M, e.V} {
		if !e.Primary {
			// Nothing of this rank's goes to the buddy.
			e.windows[0][t] = tensor.Matrix{Rows: 1}
		} else {
			e.windows[0][t] = tensor.Matrix{Rows: 1, Cols: own, Data: m.Data[:own]}
		}
		e.windows[1][t] = tensor.Matrix{Rows: 1, Cols: off - own, Data: m.Data[own:]}
	}
}

// packed returns tensor t of the slot: value, first moment, second moment.
func (e *CheckpointSlot) packed(t int) *tensor.Matrix {
	return [...]*tensor.Matrix{e.Value, e.M, e.V}[t]
}

// stageCollect copies the local rectangles of local (a value or a moment)
// into the own pieces of tensor t; nil stages plain zeros, as for a
// never-stepped optimiser.
func stageCollect(e *CheckpointSlot, t int, s State, local *tensor.Matrix) {
	dst := e.packed(t).Data
	if local == nil || local.Phantom() {
		clear(dst)
		return
	}
	r0 := localRow0(s, t)
	for j, b := range s.Blocks {
		p := e.Pieces[j]
		for r := range b.Rows {
			copy(dst[p.Off+r*p.Cols:p.Off+(r+1)*p.Cols], local.Row(b.LocalRow - r0 + r)[b.LocalCol:b.LocalCol+b.Cols])
		}
	}
}

// localRow0 is the shard row that row 0 of the slot's local tensor t holds:
// 0 for the value, and the band's first row for the moments, which hold the
// band's rows only (nn.Param.Band; 0 for an unbanded shard).
func localRow0(s State, t int) int {
	if t == 0 || s.Param == nil {
		return 0
	}
	lo, _ := s.Param.Band()
	return lo
}

// Restore rebuilds a freshly constructed model (and optimiser) at f's
// layout from the checkpoints its cluster's ranks hold, and ends with the
// step boundary's gather (Family.GatherBands): a banded weight's slot
// installs its band, and the gather fills in the rest. It is collective
// over ranks [0, n) of the cluster, n the larger of the new layout's and
// the old layout's rank counts, at most the cluster's size: every such rank
// of the new layout calls Restore with its checkpoint, and every other holds
// a checkpoint and calls Contribute. The driver hands new rank j the
// checkpoint of the j-th surviving old rank; a rank past the holders passes
// nil, which is valid when the old layout is no wider than the new one or
// the cluster no wider than the new layout.
//
// One small all-reduce — the agreement round — tells every rank which old
// ranks survive and, per slot, whether every new rank already holds its new
// rectangles. A slot that passes is installed from the local pieces and
// moves nothing (megatron [p] ⇄ seqpar [p] is every slot). Any other is
// assembled, exactly as a replicated collect did: every holder stages its
// primary pieces — and those of its buddy, if the buddy is gone — into a
// zeroed canonical buffer and one all-reduce over the ranks sums the
// disjoint contributions, every element 0+x, so the result is bitwise the
// same; the new ranks slice their rectangles out of it. A slot that
// assembles short — a piece whose holder and buddy are both gone — is an
// error that names it, on every rank.
//
// The model must have been built for the same architecture (same State()
// walk); mismatched slot shapes are an error. Gradients are left untouched
// (a fresh model has zero gradients, and trainers zero per step anyway).
func Restore(f Family, m Stater, opt *nn.Adam, ck *Checkpoint) error {
	if err := restore(f.Worker(), f.Layout().Ranks, true, m.State(), opt, ck); err != nil {
		return err
	}
	f.GatherBands()
	return nil
}

// RestoreRanks is how many cluster ranks, from rank 0, take part in a
// restore onto a layout of to ranks from the checkpoints of a layout of from
// ranks, on a cluster of world ranks: the larger layout, as far as the
// cluster reaches. A rank of the new layout that holds no checkpoint counts
// from as 0.
func RestoreRanks(world, to, from int) int { return min(world, max(to, from)) }

// Contribute is Restore on a rank that holds a checkpoint but has no place
// in the new layout: it takes part in the agreement round and adds its
// pieces to every slot that is assembled.
func Contribute(w *dist.Worker, ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("parallel: rank %d contributes no checkpoint", w.Rank())
	}
	return restore(w, 0, false, nil, nil, ck)
}

// restore is Restore on any rank: placed in the new layout of ranks ranks,
// with st its State walk, or not.
func restore(w *dist.Worker, ranks int, placed bool, st []State, opt *nn.Adam, ck *Checkpoint) error {
	nslots := len(st)
	if !placed {
		nslots = len(ck.Slots)
	}
	old := 0
	if ck != nil {
		if err := ck.Verify(); err != nil {
			return err
		}
		if len(ck.Slots) != nslots {
			return fmt.Errorf("parallel: checkpoint has %d slots, model has %d", len(ck.Slots), nslots)
		}
		old = ck.Ranks
	}
	for i, s := range st {
		if err := checkState(s); err != nil {
			return fmt.Errorf("parallel: slot %d: %w", i, err)
		}
		if ck != nil && (ck.Slots[i].Rows != s.Rows || ck.Slots[i].Cols != s.Cols) {
			return fmt.Errorf("parallel: slot %d is %dx%d in the checkpoint, %dx%d in the model",
				i, ck.Slots[i].Rows, ck.Slots[i].Cols, s.Rows, s.Cols)
		}
	}
	c := w.Cluster()
	n := RestoreRanks(c.WorldSize(), ranks, old)
	me := w.Rank()
	if me >= n {
		return fmt.Errorf("parallel: rank %d is outside the %d ranks a restore from %d onto %d ranks runs on", me, n, old, ranks)
	}
	g := prefixGroup(c, n)
	ws := w.Workspace()

	// The agreement round: per rank the old rank it holds, the one it keeps
	// (both +1, so that 0 is "none") and the step; per slot the number of
	// new ranks that do not hold their rectangles.
	agree := ws.Get(1, 3*n+nslots)
	defer ws.Put(agree)
	a := agree.Data
	if ck != nil {
		a[3*me], a[3*me+1], a[3*me+2] = float64(ck.Rank+1), float64(ck.Keeps+1), float64(ck.Step)
	}
	for i, s := range st {
		if !holds(s, ck, i) {
			a[3*n+i] = 1
		}
	}
	enterRound(w)
	g.AllReduceInto(w, agree, agree)
	step, holders := 0, 0
	for j := range n {
		if a[3*j] == 0 {
			continue
		}
		if holders > 0 && int(a[3*j+2]) != step {
			return fmt.Errorf("parallel: the checkpoints are of different steps, %d and %d", step, int(a[3*j+2]))
		}
		step = int(a[3*j+2])
		holders++
	}
	if holders == 0 {
		return fmt.Errorf("parallel: none of ranks [0, %d) holds a checkpoint", n)
	}
	keptLost := ck != nil && ck.Keeps >= 0
	for j := range n {
		if keptLost && int(a[3*j]) == ck.Keeps+1 {
			keptLost = false
		}
	}

	for i := range nslots {
		var s State
		if placed {
			s = st[i]
		}
		var locals [3]*tensor.Matrix
		if s.Param != nil {
			val := s.Param.Value
			locals[0] = val
			if opt != nil && !val.Phantom() {
				have, haveV := opt.Moments(s.Param)
				locals[1], locals[2] = momentBuffer(have, s.Param), momentBuffer(haveV, s.Param)
				opt.SetMoments(s.Param, locals[1], locals[2])
			}
			s.Param.MarkStale()
		}
		if a[3*n+i] == 0 {
			if s.Param != nil {
				installLocal(locals, s, &ck.Slots[i])
			}
			continue
		}
		if err := assemble(w, g, i, locals, s, ck, keptLost); err != nil {
			return err
		}
	}
	if opt != nil {
		opt.SetStepCount(step)
	}
	return nil
}

// holds reports whether the checkpoint's own pieces cover every rectangle
// the rank holds of slot i in the new layout.
func holds(s State, ck *Checkpoint, i int) bool {
	if s.Param == nil {
		return true
	}
	if ck == nil {
		return false
	}
	e := &ck.Slots[i]
	for _, b := range s.Blocks {
		if pieceOf(e, b) < 0 {
			return false
		}
	}
	return true
}

// pieceOf returns the index of the own piece covering b, or -1.
func pieceOf(e *CheckpointSlot, b StateBlock) int {
	for j, p := range e.Pieces[:e.Own] {
		if p.contains(b) {
			return j
		}
	}
	return -1
}

// installLocal copies the rank's rectangles of slot e's value and moments
// out of its own pieces into locals (nil: nothing held there).
func installLocal(locals [3]*tensor.Matrix, s State, e *CheckpointSlot) {
	for t, local := range locals {
		if local == nil || local.Phantom() {
			continue
		}
		src := e.packed(t).Data
		r0 := localRow0(s, t)
		for _, b := range s.Blocks {
			p := e.Pieces[pieceOf(e, b)]
			for r := range b.Rows {
				at := p.Off + (b.GlobalRow-p.Row+r)*p.Cols + b.GlobalCol - p.Col
				copy(local.Row(b.LocalRow - r0 + r)[b.LocalCol:b.LocalCol+b.Cols], src[at:at+b.Cols])
			}
		}
	}
}

// assemble rebuilds slot i's canonical value and moments on every rank of
// g from the holders' primary pieces — and a lost buddy's — and slices this
// rank's rectangles into locals. The canonical buffer stacks value, first
// moment and second moment, then one row whose first element counts the
// elements staged: an assembly that counts fewer than the slot's, or more,
// fails on every rank alike.
func assemble(w *dist.Worker, g *dist.Group, i int, locals [3]*tensor.Matrix, s State, ck *Checkpoint, keptLost bool) error {
	rows, cols := s.Rows, s.Cols
	if ck != nil {
		rows, cols = ck.Slots[i].Rows, ck.Slots[i].Cols
	}
	ws := w.Workspace()
	buf := ws.Get(3*rows+1, cols)
	defer ws.Put(buf)
	staged := 0
	if ck != nil {
		e := &ck.Slots[i]
		lo, hi := 0, e.Own
		if !e.Primary {
			lo = e.Own
		}
		if keptLost {
			hi = len(e.Pieces)
		}
		for _, p := range e.Pieces[lo:hi] {
			for t := range 3 {
				src := e.packed(t).Data
				for r := range p.Rows {
					copy(buf.Row(t*rows + p.Row + r)[p.Col:p.Col+p.Cols], src[p.Off+r*p.Cols:p.Off+(r+1)*p.Cols])
				}
			}
			staged += p.Rows * p.Cols
		}
	}
	buf.Row(3 * rows)[0] = float64(staged)
	enterRound(w)
	g.AllReduceInto(w, buf, buf)
	if got := int(buf.Row(3 * rows)[0]); got != rows*cols {
		what := "a piece's holder and its buddy are both gone"
		if got > rows*cols {
			what = "two checkpoints hold the same piece"
		}
		return fmt.Errorf("parallel: slot %d (%dx%d): the checkpoints assemble %d of its %d elements: %s",
			i, rows, cols, got, rows*cols, what)
	}
	for t, local := range locals {
		if local == nil || local.Phantom() {
			continue
		}
		r0 := localRow0(s, t)
		for _, b := range s.Blocks {
			for r := range b.Rows {
				copy(local.Row(b.LocalRow - r0 + r)[b.LocalCol:b.LocalCol+b.Cols], buf.Row(t*rows + b.GlobalRow + r)[b.GlobalCol:b.GlobalCol+b.Cols])
			}
		}
	}
	return nil
}

// momentBuffer returns the zeroed buffer a restored moment of p is staged
// into, shaped as p's band (nn.Param.Band; the whole shard unless banded):
// the optimiser's own when it already holds one of that shape — a session
// re-sharded back and forth keeps its moment storage — and a fresh one
// otherwise, as on the first restore. Zeroing the reused buffer makes the
// restore bit for bit what it is into a fresh one even where the slot's
// rectangles leave part of the band uncovered.
func momentBuffer(have *tensor.Matrix, p *nn.Param) *tensor.Matrix {
	lo, hi := p.Band()
	rows, cols := hi-lo, p.Value.Cols
	if have == nil || have.Phantom() || have.Rows != rows || have.Cols != cols {
		return tensor.New(rows, cols)
	}
	have.Zero()
	return have
}

// checkState validates one rank's slot view: rectangles must stay inside
// both the local shard and the canonical tensor.
func checkState(s State) error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("state has no canonical shape: %dx%d", s.Rows, s.Cols)
	}
	if s.Param == nil {
		if len(s.Blocks) != 0 {
			return fmt.Errorf("state has %d blocks but no local shard", len(s.Blocks))
		}
		return nil
	}
	v := s.Param.Value
	for _, b := range s.Blocks {
		if b.Rows <= 0 || b.Cols <= 0 ||
			b.LocalRow < 0 || b.LocalCol < 0 ||
			b.LocalRow+b.Rows > v.Rows || b.LocalCol+b.Cols > v.Cols ||
			b.GlobalRow < 0 || b.GlobalCol < 0 ||
			b.GlobalRow+b.Rows > s.Rows || b.GlobalCol+b.Cols > s.Cols {
			return fmt.Errorf("block %+v outside local %dx%d or global %dx%d", b, v.Rows, v.Cols, s.Rows, s.Cols)
		}
	}
	return nil
}
