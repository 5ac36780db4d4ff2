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
// verifies before broadcasting, so a snapshot damaged between collect
// and restore (a bad DIMM, a truncated transfer in the real-world analogue)
// fails loudly instead of silently training from garbage.
var ErrCheckpointCorrupt = errors.New("checkpoint corrupt")

// Checkpoint is a family-agnostic replicated snapshot of a model: every
// weight and both Adam moments in the canonical (serial) form, plus the
// optimiser step count. Because the slots are canonical, a checkpoint
// written under any registered family at any layout can be restored under
// any other — the elastic re-layout path (abort → replan → reshard) moves
// training state between arbitrary (family, layout) pairs through this one
// type.
//
// A Checkpoint is rank-local state: CollectInto leaves an identical replica
// on every collecting rank, and the driver keeps whichever copy it likes
// (conventionally rank 0's — the root Restore broadcasts from).
type Checkpoint struct {
	// Step is the optimiser step count (Adam's bias-correction clock).
	Step int
	// Slots hold the canonical tensors, in the model's State() order.
	Slots []CheckpointSlot
}

// CheckpointSlot is one canonical tensor with its Adam moments.
type CheckpointSlot struct {
	Value *tensor.Matrix
	M, V  *tensor.Matrix
	// Sum is a digest over the slot's shapes and float bits, recorded by
	// CollectInto and checked by Verify/Restore. It lives in memory only —
	// nothing persists it, so the function behind it may change. Zero means
	// "no checksum" (a hand-built slot), which verification skips.
	Sum uint64
}

// sum hashes the slot's three tensors: shapes first, then every element's
// bit pattern, so a single flipped mantissa bit — or a silently reshaped
// buffer — changes the digest.
func (e *CheckpointSlot) sum() uint64 {
	h := uint64(14695981039346656037)
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

// sumFloats folds the bit patterns of xs into h. Every rank hashes its whole
// replica on every collect, so the elements go round-robin onto four lanes
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
				i, e.Value.Rows, e.Value.Cols, ErrCheckpointCorrupt, got, e.Sum)
		}
	}
	return nil
}

// familyGroup returns the communicator spanning the ranks the family
// occupies, [0, Ranks), in ascending order. The rank list is spelled on the
// stack (dist.Cluster.Group keeps no reference to it), so finding the cached
// group allocates nothing up to 64 ranks.
func familyGroup(f Family) *dist.Group {
	var buf [64]int
	ranks := buf[:0]
	for r := range f.Layout().Ranks {
		ranks = append(ranks, r)
	}
	return f.Worker().Cluster().Group(ranks...)
}

// CollectInto snapshots the model (and optimiser moments, when opt is
// non-nil) into ck, reusing ck's buffers when shapes match so per-step
// checkpointing reaches an allocation fixed point — given a model whose
// State walk is made once, as vit.DistModel's is. Pass ck == nil to
// allocate a fresh checkpoint. Every rank of the family must call it
// collectively; each rank ends holding an identical replica.
//
// The reassembly is bitwise exact: each rank zeroes its canonical buffer,
// the primary holders copy their rectangles in, and one all-reduce over the
// family group sums the disjoint contributions — every element is 0+x in
// some fixed tree order, and 0+x is exact in floating point. Same-layout
// Restore therefore round-trips every bit.
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
	g := familyGroup(f)
	w := f.Worker()
	ck.Step = 0
	if opt != nil {
		ck.Step = opt.StepCount()
	}
	for i, s := range slots {
		e := &ck.Slots[i]
		ensureSlot(e, s.Rows, s.Cols)
		var val, om, ov *tensor.Matrix
		if s.Param != nil {
			val = s.Param.Value
			if opt != nil {
				om, ov = opt.Moments(s.Param)
			}
		}
		stageCollect(e.Value, s, val)
		g.AllReduceInto(w, e.Value, e.Value)
		stageCollect(e.M, s, om)
		g.AllReduceInto(w, e.M, e.M)
		stageCollect(e.V, s, ov)
		g.AllReduceInto(w, e.V, e.V)
		e.Sum = e.sum()
	}
	return ck, nil
}

// Restore rebuilds a freshly constructed model (and optimiser) at f's
// layout from a checkpoint: rank 0 of the family owns ck and broadcasts
// each canonical tensor over the family group — charging the simulated
// clock with the real re-shard traffic — and every rank slices its own
// rectangles out of the replicated copy into its parameter shards and
// shard-shaped Adam moments (the optimiser's existing buffers when it has
// them, see momentBuffer). Non-root ranks only read ck for shapes; the data
// they install arrived over the wire.
//
// The model must have been built for the same architecture (same State()
// walk); mismatched slot shapes are an error. Gradients are left untouched
// (a fresh model has zero gradients, and trainers zero per step anyway).
func Restore(f Family, m Stater, opt *nn.Adam, ck *Checkpoint) error {
	slots := m.State()
	if len(ck.Slots) != len(slots) {
		return fmt.Errorf("parallel: checkpoint has %d slots, model has %d", len(ck.Slots), len(slots))
	}
	w := f.Worker()
	ws := w.Workspace()
	g := familyGroup(f)
	const root = 0
	isRoot := w.Rank() == root
	// Only the root's replica goes over the wire; verify it before a single
	// byte is broadcast. The root erroring out unwinds the other ranks the
	// same way a node loss does.
	if isRoot {
		if err := ck.Verify(); err != nil {
			return err
		}
	}
	for i, s := range slots {
		if err := checkState(s); err != nil {
			return fmt.Errorf("parallel: slot %d: %w", i, err)
		}
		e := ck.Slots[i]
		if e.Value.Rows != s.Rows || e.Value.Cols != s.Cols {
			return fmt.Errorf("parallel: slot %d is %dx%d in the checkpoint, %dx%d in the model",
				i, e.Value.Rows, e.Value.Cols, s.Rows, s.Cols)
		}
		// install broadcasts one canonical tensor and stages this rank's
		// rectangles of it into local (nil: nothing held here).
		install := func(global, local *tensor.Matrix) {
			recv := global
			if !isRoot {
				recv = ws.GetUninitMatch(global.Rows, global.Cols, global.Phantom())
				g.BroadcastInto(w, root, nil, recv)
			} else {
				g.BroadcastInto(w, root, global, global)
			}
			if local != nil {
				stageRestore(local, s, recv)
			}
			if !isRoot {
				ws.Put(recv)
			}
		}
		var val, mm, vv *tensor.Matrix
		if s.Param != nil {
			val = s.Param.Value
			if opt != nil && !val.Phantom() {
				have, haveV := opt.Moments(s.Param)
				mm, vv = momentBuffer(have, val), momentBuffer(haveV, val)
				opt.SetMoments(s.Param, mm, vv)
			}
		}
		install(e.Value, val)
		install(e.M, mm)
		install(e.V, vv)
	}
	if opt != nil {
		opt.SetStepCount(ck.Step)
	}
	return nil
}

// momentBuffer returns the zeroed shard-shaped buffer a restored moment is
// staged into: the optimiser's own when it already holds one of the shard's
// shape — a session re-sharded back and forth keeps its moment storage —
// and a fresh one otherwise, as on the first restore. Zeroing the reused
// buffer makes the restore bit for bit what it is into a fresh one even
// where the slot's rectangles leave part of the shard uncovered.
func momentBuffer(have, shard *tensor.Matrix) *tensor.Matrix {
	if have == nil || have.Phantom() || have.Rows != shard.Rows || have.Cols != shard.Cols {
		return tensor.New(shard.Rows, shard.Cols)
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

// ensureSlot sizes a slot's three buffers, reusing existing ones when the
// shape already matches. Checkpoint buffers are plain allocations, not
// workspace buffers: they outlive the cluster that wrote them.
func ensureSlot(e *CheckpointSlot, rows, cols int) {
	fit := func(m *tensor.Matrix) *tensor.Matrix {
		if m != nil && m.Rows == rows && m.Cols == cols {
			return m
		}
		return tensor.New(rows, cols)
	}
	e.Value, e.M, e.V = fit(e.Value), fit(e.M), fit(e.V)
}

// stageCollect zeroes the canonical buffer and, on a primary holder, copies
// the local rectangles in. local is the matrix to read (a value or a
// moment); nil stages plain zeros, as for a never-stepped optimiser.
func stageCollect(global *tensor.Matrix, s State, local *tensor.Matrix) {
	global.Zero()
	if !s.Primary || local == nil || local.Phantom() {
		return
	}
	for _, b := range s.Blocks {
		copyRect(global, b.GlobalRow, b.GlobalCol, local, b.LocalRow, b.LocalCol, b.Rows, b.Cols)
	}
}

// stageRestore copies this rank's rectangles of the replicated canonical
// tensor into the local shard.
func stageRestore(local *tensor.Matrix, s State, global *tensor.Matrix) {
	if local.Phantom() {
		return
	}
	for _, b := range s.Blocks {
		copyRect(local, b.LocalRow, b.LocalCol, global, b.GlobalRow, b.GlobalCol, b.Rows, b.Cols)
	}
}

// copyRect copies a rows×cols window from src at (sr, sc) to dst at (dr, dc).
func copyRect(dst *tensor.Matrix, dr, dc int, src *tensor.Matrix, sr, sc, rows, cols int) {
	for r := 0; r < rows; r++ {
		copy(dst.Row(dr + r)[dc:dc+cols], src.Row(sr + r)[sc:sc+cols])
	}
}
