package tensor

import "fmt"

// Workspace is a size-keyed buffer pool for matrices, built so the training
// hot path stops allocating: every panel, partial and activation a step
// needs is drawn from free lists keyed by element count and recycled
// instead of being handed to the garbage collector. A checkout re-stamps
// Rows/Cols, so a buffer released as 2×3 may come back as 3×2 or 6×1: the
// pool holds storage, not shapes.
//
// A workspace is intentionally NOT safe for concurrent use. Each simulated
// worker owns exactly one (dist.Worker.Workspace), so the steady path takes
// no locks. Buffers never migrate between workspaces: collectives that hand
// matrices across workers either copy into the receiver's own buffers
// (the *Into variants) or pass read-only references whose last read
// completes before the collective returns.
//
// # Ownership and lifetime rules
//
// Get/GetUninit check a buffer out; it stays checked out until exactly one of
//
//   - Put(m): the holder returns it early. Only the current holder may Put,
//     and only once — a double Put would hand the same storage to two users.
//     Use Put for transient scratch whose last read is provably behind us:
//     SUMMA receive panels, reduce partials, per-head attention scratch,
//     broadcast bias buffers, and gradient intermediates (a layer's
//     Backward never retains its input, so the owner of a gradient buffer
//     may Put it once every Backward it was passed to has returned).
//   - ReleaseAll(): the step boundary. Everything still checked out returns
//     to the free lists at once. Forward-pass values ride to the step
//     boundary: a layer's Forward may retain its input and its output for
//     the backward pass (saved activations, attention probabilities,
//     layer-norm statistics), so callers must never Put a buffer that
//     crossed a Forward API — unless the callee documents that it does not
//     retain it, as parallel.LayerNorm does for its input.
//
// ReleaseAll may only run at a step boundary — after the optimiser step, or
// after an evaluation forward whose outputs have been consumed — never
// between a forward and its backward. Reading a buffer's data or shape after
// its Put is reading whatever the next holder made of it.
//
// # Collective boundaries and borrows
//
// The blocking dist collectives complete all cross-worker reads before any
// member returns, so a buffer used as a blocking collective's source or
// destination is again exclusively owned the moment the call returns: it may
// be reused, Put, or sent again immediately. Snapshot-free *Into collectives
// rely on this.
//
// The nonblocking collectives (dist's IBroadcastInto family) borrow their
// payload and destination between issue and Wait: the runtime marks the
// buffers via Borrow at issue and releases them when Wait returns. A
// borrowed buffer must not be Put and must not reach ReleaseAll — both
// panic, because an in-flight collective may still read or write the
// storage. Drain every handle before the step boundary.
//
// # The transient store
//
// A call whose scratch is all returned before it returns — a SUMMA kernel's
// receive panels and reduce partials — draws it from one store per
// workspace instead of the free lists: Reserve(n) readies n elements for the
// call, and each GetTransient checks out a header that views the next slice
// of them. The views are checkouts like any other (Gets, Live, LiveBytes,
// Borrow, Put and ReleaseAll treat them alike), so the footprint a step
// reports is unchanged; what changes is that the storage behind them is the
// largest one call needed rather than one buffer per shape any call ever
// asked for. Reserve panics while a view is still out: the calls that use
// the store never nest.
//
// # Phantoms
//
// The pool is phantom-aware: requesting a phantom shape yields a pooled
// shape-only matrix. A phantom has no storage to recycle, only a header, so
// every phantom shape shares one free list and a checkout re-stamps
// Rows/Cols: a paper-scale replay touches hundreds of shapes once each, and
// a bucket, a map insert and a header per shape were most of what it
// allocated. New headers are carved from slabs (phantomHeader). The list is
// the phantoms' alone, so a phantom can never satisfy a real request or vice
// versa, and a phantom transient request takes a phantom header too.
// Checkout, Put, Borrow and ReleaseAll discipline and the statistics are
// those of a real buffer — a checked-out phantom counts the 8·rows·cols
// bytes its shape stands for, so the LiveBytes and HighWaterBytes of a
// phantom replay are the bytes the same run would hold with real data.
//
// # Implementation note
//
// Checkout state lives intrusively on the Matrix itself (owning pool, slot
// in the checked-out list, home free list, borrow count), so Get, Put and
// ReleaseAll touch no hash map except the one size lookup a Get performs —
// the checked-out set that used to be a map is a plain slice with O(1)
// swap-removal.
type Workspace struct {
	free map[int]*wsBucket
	// phantoms is the one free list behind every phantom shape (see
	// "Phantoms" above); free and cache hold real buffers only. slab is
	// where new phantom headers are carved from, headers how many were.
	phantoms wsBucket
	slab     []Matrix
	headers  int
	// store is the transient store (see above): next is the first element
	// no view of the current reservation holds, views the free list of
	// view headers and viewsOut how many are checked out.
	store    []float64
	next     int
	views    wsBucket
	viewsOut int
	// cache is a direct-mapped front for the free map: a training step asks
	// for the same handful of sizes thousands of times, and the map lookup
	// (hash + probe) was ~7% of a step. A size's bucket is remembered in
	// its hash slot on first lookup; collisions just fall back to the map.
	cache [wsCacheSlots]wsCacheEntry
	out   []*Matrix

	pooling  bool
	borrowed int
	stats    WorkspaceStats
}

const wsCacheSlots = 64

type wsCacheEntry struct {
	elems int
	b     *wsBucket
}

// cacheSlot hashes an element count into the direct-mapped cache: the top
// bits of a Fibonacci hash, so the near-power-of-two sizes a training step
// cycles through spread across the slots and two hot sizes rarely
// ping-pong in one slot (each eviction costs a map probe).
func cacheSlot(elems int) int {
	return int(uint64(elems) * 0x9E3779B97F4A7C15 >> 58)
}

// wsBucket is one free list: a real size's, the phantoms' or the transient
// store's view headers. Matrices remember their bucket, so Put and
// ReleaseAll recycle without a map lookup.
type wsBucket struct {
	items []*Matrix
}

// WorkspaceStats is a point-in-time snapshot of pool behaviour.
type WorkspaceStats struct {
	// Allocs counts pool misses: Gets that had to allocate a new matrix.
	// Flat Allocs across steps means the steady path never allocates.
	Allocs int
	// Gets counts all checkouts; Gets − Allocs hit a free list.
	Gets int
	// Live is the number of currently checked-out buffers.
	Live int
	// HighWater is the maximum Live ever observed — the arena footprint of
	// one step. Flat HighWater across steps means no leak.
	HighWater int
	// LiveBytes is the storage the currently checked-out buffers stand
	// for: ElemBytes per element, for a phantom the bytes a real matrix of
	// its shape would hold.
	LiveBytes int64
	// HighWaterBytes is the maximum LiveBytes ever observed — the peak
	// activation footprint the planner charges a layout and memory studies
	// compare across families; a phantom replay's equals its real twin's.
	HighWaterBytes int64
	// HeldBytes is the storage the pool owns: every real buffer it has
	// allocated, free or checked out, and the transient store. Phantoms
	// own none. A warm rank's HeldBytes over its HighWaterBytes is what
	// the pool holds beyond what the planner charges.
	HeldBytes int64
}

// NewWorkspace returns an empty pool with pooling enabled.
func NewWorkspace() *Workspace {
	return &Workspace{
		free:    make(map[int]*wsBucket),
		pooling: true,
	}
}

// SetPooling toggles recycling. Disabled, Get/GetUninit degenerate to plain
// allocation and Put/ReleaseAll drop their buffers — the allocating
// reference path the bitwise property tests compare against.
func (ws *Workspace) SetPooling(enabled bool) { ws.pooling = enabled }

// Stats returns a snapshot of the pool counters.
func (ws *Workspace) Stats() WorkspaceStats { return ws.stats }

// Get checks out a zeroed rows×cols matrix.
func (ws *Workspace) Get(rows, cols int) *Matrix {
	m := ws.GetUninit(rows, cols)
	m.Zero()
	return m
}

// GetUninit checks out a rows×cols matrix with unspecified contents. Use it
// only for destinations that are fully overwritten before being read.
func (ws *Workspace) GetUninit(rows, cols int) *Matrix {
	return ws.get(rows, cols, false)
}

// GetMatch is Get with the phantomness of the computation the buffer joins:
// phantom inputs get a pooled shape-only matrix, real inputs a zeroed one.
func (ws *Workspace) GetMatch(rows, cols int, phantom bool) *Matrix {
	if phantom {
		return ws.get(rows, cols, true)
	}
	return ws.Get(rows, cols)
}

// GetUninitMatch is GetUninit with a phantom variant.
func (ws *Workspace) GetUninitMatch(rows, cols int, phantom bool) *Matrix {
	return ws.get(rows, cols, phantom)
}

func (ws *Workspace) get(rows, cols int, phantom bool) *Matrix {
	checkDims(rows, cols)
	ws.stats.Gets++
	bucket := &ws.phantoms
	if !phantom {
		n := rows * cols
		slot := cacheSlot(n)
		if e := &ws.cache[slot]; e.b != nil && e.elems == n {
			bucket = e.b
		} else {
			bucket = ws.free[n]
			if bucket == nil {
				bucket = &wsBucket{}
				ws.free[n] = bucket
			}
			ws.cache[slot] = wsCacheEntry{elems: n, b: bucket}
		}
	}
	var m *Matrix
	if m = bucket.pop(ws.pooling); m == nil {
		ws.stats.Allocs++
		if phantom {
			m = ws.phantomHeader(rows, cols)
		} else {
			m = New(rows, cols)
			if ws.pooling {
				ws.stats.HeldBytes += storageBytes(m)
			}
		}
		m.bucket = bucket
	}
	// The header's shape is the request's, whatever shape it was last
	// checked out under: a bucket holds one size, or phantoms of any.
	m.Rows, m.Cols = rows, cols
	ws.checkout(m)
	return m
}

// pop takes the last free item of b, or returns nil if there is none or
// pooling is off.
func (b *wsBucket) pop(pooling bool) *Matrix {
	n := len(b.items)
	if !pooling || n == 0 {
		return nil
	}
	m := b.items[n-1]
	b.items[n-1] = nil
	b.items = b.items[:n-1]
	return m
}

// checkout enters m in the checked-out list and the counters (pooling only).
func (ws *Workspace) checkout(m *Matrix) {
	if !ws.pooling {
		return
	}
	m.ws = ws
	m.wsIdx = int32(len(ws.out))
	ws.out = append(ws.out, m)
	ws.stats.Live++
	if ws.stats.Live > ws.stats.HighWater {
		ws.stats.HighWater = ws.stats.Live
	}
	ws.stats.LiveBytes += storageBytes(m)
	if ws.stats.LiveBytes > ws.stats.HighWaterBytes {
		ws.stats.HighWaterBytes = ws.stats.LiveBytes
	}
}

// Reserve readies the transient store for one call's GetTransient views:
// it takes back every element the previous call's views held and grows the
// store to at least n elements. It panics if a view of the store is still
// checked out — the calls that share the store must not nest. No-op when
// pooling is disabled, where GetTransient allocates.
func (ws *Workspace) Reserve(n int) {
	if !ws.pooling {
		return
	}
	if ws.viewsOut != 0 {
		panic(fmt.Sprintf("tensor: workspace Reserve with %d transient view(s) still checked out — Put them before the next reservation", ws.viewsOut))
	}
	ws.next = 0
	if n > len(ws.store) {
		ws.stats.HeldBytes += ElemBytes * int64(n-len(ws.store))
		ws.store = make([]float64, n)
	}
}

// GetTransient checks out a rows×cols matrix with unspecified contents,
// viewing the next rows·cols elements of the store the last Reserve
// readied; it panics if they do not fit. A phantom request takes a phantom
// header, as GetUninitMatch does, and with pooling disabled the view is a
// plain allocation. The view is returned like any checkout, by Put or
// ReleaseAll, and until it is the store's next Reserve panics.
func (ws *Workspace) GetTransient(rows, cols int, phantom bool) *Matrix {
	if phantom || !ws.pooling {
		return ws.get(rows, cols, phantom)
	}
	checkDims(rows, cols)
	n := rows * cols
	if ws.next+n > len(ws.store) {
		panic(fmt.Sprintf("tensor: workspace transient %dx%d past the %d reserved elements (%d in use)", rows, cols, len(ws.store), ws.next))
	}
	ws.stats.Gets++
	m := ws.views.pop(true)
	if m == nil {
		ws.stats.Allocs++
		m = &Matrix{bucket: &ws.views}
	}
	m.Rows, m.Cols = rows, cols
	m.Data = ws.store[ws.next : ws.next+n : ws.next+n]
	ws.next += n
	ws.viewsOut++
	ws.checkout(m)
	return m
}

// phantomHeader carves a new rows×cols phantom header from the slab. A slab
// holds as many headers as were carved before it, sixteen at first, so a
// replay holding k phantoms at once allocates about log₂ k slabs rather than
// k headers; and each slab makes room on the phantoms' free list and the
// checked-out list for every header the slabs hold, so in a phantom replay
// neither a checkout nor a Put regrows them. A header pins its slab.
func (ws *Workspace) phantomHeader(rows, cols int) *Matrix {
	if len(ws.slab) == 0 {
		n := max(16, ws.headers)
		ws.slab = make([]Matrix, n)
		ws.phantoms.items = withRoom(ws.phantoms.items, ws.headers+n)
		ws.out = withRoom(ws.out, ws.headers+n)
	}
	m := &ws.slab[0]
	ws.slab = ws.slab[1:]
	ws.headers++
	m.Rows, m.Cols = rows, cols
	return m
}

// withRoom returns s with capacity for n items, moved in one allocation if
// it has less (slices.Grow takes two under the race detector, which would
// move the allocation counts CI pins there).
func withRoom(s []*Matrix, n int) []*Matrix {
	if cap(s) >= n {
		return s
	}
	t := make([]*Matrix, len(s), n)
	copy(t, s)
	return t
}

// storageBytes is the storage one pooled buffer stands for: ElemBytes per
// element, whether the elements exist (a real matrix) or only their shape
// does (a phantom).
func storageBytes(m *Matrix) int64 {
	return ElemBytes * int64(m.Rows) * int64(m.Cols)
}

// Put returns checked-out buffers to their free lists. It panics on a matrix
// this workspace does not consider checked out (double Put, never pooled, or
// already swept by ReleaseAll) — each of those is an aliasing bug waiting to
// hand one buffer to two holders — and on a matrix still borrowed by an
// in-flight nonblocking collective (Put before Wait). No-op when pooling is
// disabled.
func (ws *Workspace) Put(ms ...*Matrix) {
	if !ws.pooling {
		return
	}
	for _, m := range ms {
		if m == nil {
			continue
		}
		if m.ws != ws {
			panic(fmt.Sprintf("tensor: workspace Put of a %dx%d matrix that is not checked out", m.Rows, m.Cols))
		}
		if m.borrows != 0 {
			panic(fmt.Sprintf("tensor: workspace Put of a %dx%d matrix still borrowed by %d in-flight collective(s) — Wait the handle first", m.Rows, m.Cols, m.borrows))
		}
		ws.remove(m)
		ws.recycle(m)
	}
}

// recycle files a returned buffer on its free list. A view header lets go
// of the store, so an outgrown store is not kept alive by a free header.
func (ws *Workspace) recycle(m *Matrix) {
	if m.bucket == &ws.views {
		m.Data = nil
		ws.viewsOut--
	}
	m.bucket.items = append(m.bucket.items, m)
}

// remove unlinks m from the checked-out list in O(1) by swapping the tail
// into its slot.
func (ws *Workspace) remove(m *Matrix) {
	last := len(ws.out) - 1
	if i := int(m.wsIdx); i != last {
		moved := ws.out[last]
		ws.out[i] = moved
		moved.wsIdx = int32(i)
	}
	ws.out[last] = nil
	ws.out = ws.out[:last]
	m.ws = nil
	ws.stats.Live--
	ws.stats.LiveBytes -= storageBytes(m)
}

// ReleaseAll returns every checked-out buffer to the free lists — the step
// boundary. It panics if any buffer is still borrowed by an in-flight
// nonblocking collective: a handle crossing a step boundary is a bug. See
// the ownership rules in the type comment for when ReleaseAll is safe.
func (ws *Workspace) ReleaseAll() {
	if !ws.pooling {
		return
	}
	if ws.borrowed != 0 {
		panic(fmt.Sprintf("tensor: workspace ReleaseAll with %d buffer(s) still borrowed by in-flight collectives — Wait every handle before the step boundary", ws.borrowed))
	}
	for i, m := range ws.out {
		m.ws = nil
		ws.recycle(m)
		ws.out[i] = nil
	}
	ws.out = ws.out[:0]
	ws.stats.Live = 0
	ws.stats.LiveBytes = 0
}

// Borrow marks a checked-out buffer as lent to an in-flight nonblocking
// collective: until the matching Release, Put panics on it and ReleaseAll
// refuses to run. Matrices that are not checked out of this workspace
// (parameters, plain allocations, pooling disabled) are ignored — the
// borrow discipline protects pooled storage only. Borrows nest: a buffer
// lent as both payload and destination of one collective is borrowed twice.
func (ws *Workspace) Borrow(m *Matrix) {
	if m == nil || m.ws != ws {
		return
	}
	m.borrows++
	ws.borrowed++
}

// Release undoes one Borrow.
func (ws *Workspace) Release(m *Matrix) {
	if m == nil || m.ws != ws {
		return
	}
	if m.borrows == 0 {
		panic(fmt.Sprintf("tensor: workspace Release of a %dx%d matrix that is not borrowed", m.Rows, m.Cols))
	}
	m.borrows--
	ws.borrowed--
}
