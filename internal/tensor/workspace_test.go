package tensor

import "testing"

func TestWorkspaceReusesBuffers(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 3)
	a.Fill(7)
	ws.Put(a)
	b := ws.Get(4, 3)
	if b != a {
		t.Fatal("same-shape Get after Put should return the recycled buffer")
	}
	for _, v := range b.Data {
		if v != 0 {
			t.Fatal("Get must hand back a zeroed buffer")
		}
	}
	if s := ws.Stats(); s.Allocs != 1 || s.Gets != 2 {
		t.Fatalf("stats %+v: want 1 alloc over 2 gets", s)
	}
}

func TestWorkspaceGetUninitSkipsZeroing(t *testing.T) {
	ws := NewWorkspace()
	a := ws.GetUninit(2, 2)
	a.Fill(3)
	ws.Put(a)
	b := ws.GetUninit(2, 2)
	if b != a {
		t.Fatal("expected recycled buffer")
	}
	if b.Data[0] != 3 {
		t.Fatal("GetUninit must not pay for zeroing")
	}
}

// TestWorkspaceShapeAndPhantomKeying: real buffers are pooled by element
// count, so a released 2×3 buffer serves a 3×2 request, re-stamped and
// zeroed; a phantom of the same shape never serves the real request, nor a
// real buffer the phantom one.
func TestWorkspaceShapeAndPhantomKeying(t *testing.T) {
	ws := NewWorkspace()
	real := ws.Get(2, 3)
	ph := ws.GetMatch(2, 3, true)
	if !ph.Phantom() || real.Phantom() {
		t.Fatal("phantom request must yield a phantom, real a real")
	}
	real.Fill(5)
	ws.Put(real, ph)
	got := ws.Get(3, 2)
	if got != real || got.Rows != 3 || got.Cols != 2 || len(got.Data) != 6 {
		t.Fatalf("a 3x2 request got %dx%d with %d elements, want the released 2x3 buffer re-stamped", got.Rows, got.Cols, len(got.Data))
	}
	for _, v := range got.Data {
		if v != 0 {
			t.Fatal("a re-stamped Get must still be zeroed")
		}
	}
	if ws.Stats().Allocs != 2 {
		t.Fatalf("stats %+v: the 3x2 request should not allocate", ws.Stats())
	}
	// The free phantom header does not serve a real 2x3 request …
	if r := ws.GetUninit(2, 3); r == ph || r.Phantom() {
		t.Fatal("a real request must not be served by a phantom header")
	}
	// … and a free real buffer does not serve a phantom one.
	ws.Put(got)
	if p := ws.GetUninitMatch(3, 2, true); p != ph || !p.Phantom() {
		t.Fatal("a phantom request must be served by the phantom header, not a real buffer")
	}
	if p := ws.GetUninitMatch(6, 1, true); p == got || !p.Phantom() {
		t.Fatal("a phantom request must not be served by a free real buffer of its size")
	}
}

// TestWorkspacePhantomsShareOneFreeList: a phantom has only a header to
// recycle, so a header Put under one shape serves the next phantom request of
// any shape, re-stamped — and the phantoms' list and the real buckets never
// serve each other, same shape or not.
func TestWorkspacePhantomsShareOneFreeList(t *testing.T) {
	ws := NewWorkspace()
	ph := ws.GetMatch(2, 3, true)
	ws.Put(ph)
	got := ws.GetUninitMatch(7, 5, true)
	if got != ph {
		t.Fatal("a phantom request of another shape should recycle the free header")
	}
	if got.Rows != 7 || got.Cols != 5 || !got.Phantom() {
		t.Fatalf("recycled header is %dx%d (phantom %v), want the requested phantom 7x5", got.Rows, got.Cols, got.Phantom())
	}
	ws.Put(got)

	// A free phantom header never serves a real request, whatever shape it
	// last had …
	for _, shape := range [][2]int{{7, 5}, {2, 3}} {
		real := ws.Get(shape[0], shape[1])
		if real == ph || real.Phantom() || len(real.Data) != shape[0]*shape[1] {
			t.Fatalf("real %dx%d request got %dx%d (phantom %v, %d elements)",
				shape[0], shape[1], real.Rows, real.Cols, real.Phantom(), len(real.Data))
		}
		ws.Put(real)
	}
	// … and free real buffers never serve a phantom one: the only free
	// phantom header is ph, and a second request has to allocate.
	allocs := ws.Stats().Allocs
	a, b := ws.GetMatch(7, 5, true), ws.GetMatch(2, 3, true)
	if a != ph || !a.Phantom() || !b.Phantom() || b.Data != nil {
		t.Fatal("phantom requests must be served by phantom headers only")
	}
	if got := ws.Stats().Allocs - allocs; got != 1 {
		t.Fatalf("%d allocations for two phantom requests against one free header, want 1", got)
	}
	if s := ws.Stats(); s.LiveBytes != 8*(7*5+2*3) || s.HighWaterBytes != s.LiveBytes {
		t.Fatalf("stats %+v: a phantom counts the bytes its shape stands for; the two live ones are the peak", s)
	}
}

// TestWorkspaceStatsOnRecordedSequence pins the counters on one recorded mix
// of real and phantom traffic: Put, ReleaseAll, a double-booked shape and a
// borrow. The counts are the ones the pool produced when phantoms were
// pooled by shape too — every phantom request here either finds a free header
// of its own shape or finds none at all, where the two designs agree. The
// live and high-water byte columns charge a phantom what a real matrix of
// its shape holds; HeldBytes counts real storage only (the two real 4x4s,
// then the 1x1).
func TestWorkspaceStatsOnRecordedSequence(t *testing.T) {
	ws := NewWorkspace()
	want := func(step string, s WorkspaceStats) {
		t.Helper()
		if got := ws.Stats(); got != s {
			t.Fatalf("%s: stats %+v, recorded %+v", step, got, s)
		}
	}
	r1 := ws.Get(4, 4)
	p1 := ws.GetMatch(4, 4, true)
	p2 := ws.GetUninitMatch(2, 8, true)
	want("three checkouts", WorkspaceStats{Allocs: 3, Gets: 3, Live: 3, HighWater: 3, LiveBytes: 384, HighWaterBytes: 384, HeldBytes: 128})
	ws.Borrow(p2)
	ws.Put(p1)
	ws.Release(p2)
	want("phantom Put", WorkspaceStats{Allocs: 3, Gets: 3, Live: 2, HighWater: 3, LiveBytes: 256, HighWaterBytes: 384, HeldBytes: 128})
	p3 := ws.GetMatch(4, 4, true) // p1's header
	r2 := ws.GetUninit(4, 4)      // a second real 4x4: r1 is still out
	if p3 != p1 || r2 == r1 {
		t.Fatal("recycling went to the wrong list")
	}
	want("refill", WorkspaceStats{Allocs: 4, Gets: 5, Live: 4, HighWater: 4, LiveBytes: 512, HighWaterBytes: 512, HeldBytes: 256})
	ws.ReleaseAll()
	want("step boundary", WorkspaceStats{Allocs: 4, Gets: 5, Live: 0, HighWater: 4, LiveBytes: 0, HighWaterBytes: 512, HeldBytes: 256})
	ws.Get(4, 4)
	ws.GetMatch(2, 8, true)
	ws.GetMatch(4, 4, true)
	ws.Get(1, 1)
	want("next step", WorkspaceStats{Allocs: 5, Gets: 9, Live: 4, HighWater: 4, LiveBytes: 392, HighWaterBytes: 512, HeldBytes: 264})
}

// TestWorkspacePhantomReplayAllocatesOnce replays the shape of a phantom
// step that re-runs its forward — a forward phase, the recompute forward, and a backward whose
// gradient and transposed-panel shapes the forward never asked for — with a
// step boundary between phases. The backward holds no more headers at once
// than the forward did, so the first phase's headers serve all three: the
// header count follows the peak number of live phantoms, not the number of
// distinct shapes.
func TestWorkspacePhantomReplayAllocatesOnce(t *testing.T) {
	ws := NewWorkspace()
	forward := func() {
		x := ws.GetMatch(32, 16, true)       // activation, rides to the boundary
		panel := ws.GetMatch(32, 4, true)    // SUMMA receive panel, transient
		h := ws.GetUninitMatch(32, 64, true) // MLP hidden, rides
		ws.Put(panel)
		probs := ws.GetMatch(8, 8, true) // attention scratch, transient
		ws.Put(probs)
		_, _ = x, h
	}
	backward := func() {
		dh := ws.GetMatch(32, 64, true)
		dw := ws.GetUninitMatch(16, 64, true) // weight gradient: no forward shape
		panelT := ws.GetMatch(4, 32, true)    // transposed panel: no forward shape
		ws.Put(panelT)
		dx := ws.GetMatch(32, 16, true)
		ws.Put(dh, dw, dx)
	}
	forward()
	first := ws.Stats()
	if first.Allocs != first.HighWater || first.HighWater != 3 {
		t.Fatalf("stats %+v: the forward phase should allocate its three concurrently live headers", first)
	}
	ws.ReleaseAll()
	forward() // recompute
	ws.ReleaseAll()
	backward()
	ws.ReleaseAll()
	if s := ws.Stats(); s.Allocs != first.Allocs || s.HighWater != first.HighWater || s.Gets != 12 {
		t.Fatalf("stats %+v: recompute and backward must run on the first phase's %d headers", s, first.Allocs)
	}
}

func TestWorkspaceDoublePutPanics(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Get(1, 1)
	ws.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put must panic — it would alias one buffer to two holders")
		}
	}()
	ws.Put(m)
}

func TestWorkspaceForeignPutPanics(t *testing.T) {
	ws := NewWorkspace()
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a never-pooled matrix must panic")
		}
	}()
	ws.Put(New(2, 2))
}

func TestWorkspaceReleaseAll(t *testing.T) {
	ws := NewWorkspace()
	a, b := ws.Get(2, 2), ws.Get(5, 1)
	_ = a
	_ = b
	if s := ws.Stats(); s.Live != 2 || s.HighWater != 2 {
		t.Fatalf("stats %+v: want live=highwater=2", s)
	}
	ws.ReleaseAll()
	if s := ws.Stats(); s.Live != 0 {
		t.Fatalf("stats %+v: want live=0 after ReleaseAll", s)
	}
	// Everything returned to the free lists: no new allocations.
	ws.Get(2, 2)
	ws.Get(5, 1)
	if s := ws.Stats(); s.Allocs != 2 {
		t.Fatalf("stats %+v: the released buffers should satisfy the next round", s)
	}
}

func TestWorkspacePoolingDisabled(t *testing.T) {
	ws := NewWorkspace()
	ws.SetPooling(false)
	a := ws.Get(2, 2)
	ws.Put(a) // no-op, must not panic
	if b := ws.Get(2, 2); b == a {
		t.Fatal("with pooling disabled every Get must allocate fresh")
	}
	ws.ReleaseAll() // no-op
	if s := ws.Stats(); s.Live != 0 || s.Allocs != 2 {
		t.Fatalf("stats %+v: disabled pool should count allocs but track nothing", s)
	}
}

func TestWorkspaceHighWater(t *testing.T) {
	ws := NewWorkspace()
	for step := 0; step < 4; step++ {
		for i := 0; i < 3; i++ {
			ws.Get(2, 2)
		}
		ws.ReleaseAll()
	}
	if s := ws.Stats(); s.HighWater != 3 || s.Allocs != 3 {
		t.Fatalf("stats %+v: steady 3-buffer steps must hold high water and allocs at 3", s)
	}
}

// TestWorkspaceTransientViews: GetTransient carves the reserved store into
// views that count like any checkout, a later Reserve hands the same
// storage to the next call, and HeldBytes counts the store once.
func TestWorkspaceTransientViews(t *testing.T) {
	ws := NewWorkspace()
	ws.Reserve(2*3 + 4)
	a, b := ws.GetTransient(2, 3, false), ws.GetTransient(4, 1, false)
	if len(a.Data) != 6 || len(b.Data) != 4 || &a.Data[5] == &b.Data[0] {
		t.Fatal("views must be disjoint slices of the store")
	}
	if s := ws.Stats(); s.Gets != 2 || s.Live != 2 || s.LiveBytes != 8*10 || s.HeldBytes != 8*10 {
		t.Fatalf("stats %+v: two views are two checkouts of the 10 reserved elements", s)
	}
	a.Fill(1)
	ws.Put(a, b)
	if a.Data != nil {
		t.Fatal("a returned view must let go of the store")
	}
	ws.Reserve(6)
	c := ws.GetTransient(3, 2, false)
	if c.Data[0] != 1 || c.Rows != 3 || c.Cols != 2 {
		t.Fatal("the next reservation should view the same storage from its start")
	}
	ws.Put(c)
	ws.Reserve(12) // outgrows the store: HeldBytes counts the new one only
	if s := ws.Stats(); s.HeldBytes != 8*12 || s.Allocs != 2 || s.Live != 0 {
		t.Fatalf("stats %+v: the store grew to 12 elements; two headers were allocated", s)
	}
	ph := ws.GetTransient(5, 5, true)
	if !ph.Phantom() || ws.Stats().HeldBytes != 8*12 {
		t.Fatal("a phantom transient request takes a phantom header and no store")
	}
	ws.ReleaseAll()
}

func TestWorkspaceReserveWithViewOutPanics(t *testing.T) {
	ws := NewWorkspace()
	ws.Reserve(4)
	ws.GetTransient(2, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve with a view still out must panic — the next call's views would alias it")
		}
	}()
	ws.Reserve(4)
}

func TestWorkspaceTransientOverflowPanics(t *testing.T) {
	ws := NewWorkspace()
	ws.Reserve(4)
	ws.GetTransient(1, 3, false)
	defer func() {
		if recover() == nil {
			t.Fatal("a view past the reservation must panic")
		}
	}()
	ws.GetTransient(1, 2, false)
}

// TestWorkspaceBorrowedViewPutPanics: a view lent to an in-flight collective
// obeys the borrow rule of every checkout.
func TestWorkspaceBorrowedViewPutPanics(t *testing.T) {
	ws := NewWorkspace()
	ws.Reserve(4)
	v := ws.GetTransient(2, 2, false)
	ws.Borrow(v)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Put of a borrowed view must panic")
			}
		}()
		ws.Put(v)
	}()
	ws.Release(v)
	ws.Put(v)
	ws.Reserve(4) // every view is back
}

// TestWorkspaceTransientWithPoolingDisabled: the allocating reference path
// stays allocating — every view is a fresh matrix and nothing is held.
func TestWorkspaceTransientWithPoolingDisabled(t *testing.T) {
	ws := NewWorkspace()
	ws.SetPooling(false)
	ws.Reserve(4)
	a := ws.GetTransient(2, 2, false)
	ws.Put(a)
	ws.Reserve(4)
	if b := ws.GetTransient(2, 2, false); b == a || len(b.Data) != 4 {
		t.Fatal("with pooling disabled every transient request must allocate fresh")
	}
	if s := ws.Stats(); s.HeldBytes != 0 || s.Live != 0 {
		t.Fatalf("stats %+v: a disabled pool holds nothing", s)
	}
}
