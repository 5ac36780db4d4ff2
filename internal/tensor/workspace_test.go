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

func TestWorkspaceShapeAndPhantomKeying(t *testing.T) {
	ws := NewWorkspace()
	real := ws.Get(2, 3)
	ph := ws.GetMatch(2, 3, true)
	if !ph.Phantom() || real.Phantom() {
		t.Fatal("phantom request must yield a phantom, real a real")
	}
	ws.Put(real, ph)
	if got := ws.GetMatch(2, 3, true); got != ph {
		t.Fatal("phantom free list should recycle the phantom header")
	}
	if got := ws.Get(3, 2); got == real {
		t.Fatal("a 3x2 request must not be satisfied by a 2x3 buffer")
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
// byte columns charge a phantom what a real matrix of its shape holds.
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
	want("three checkouts", WorkspaceStats{Allocs: 3, Gets: 3, Live: 3, HighWater: 3, LiveBytes: 384, HighWaterBytes: 384})
	ws.Borrow(p2)
	ws.Put(p1)
	ws.Release(p2)
	want("phantom Put", WorkspaceStats{Allocs: 3, Gets: 3, Live: 2, HighWater: 3, LiveBytes: 256, HighWaterBytes: 384})
	p3 := ws.GetMatch(4, 4, true) // p1's header
	r2 := ws.GetUninit(4, 4)      // a second real 4x4: r1 is still out
	if p3 != p1 || r2 == r1 {
		t.Fatal("recycling went to the wrong list")
	}
	want("refill", WorkspaceStats{Allocs: 4, Gets: 5, Live: 4, HighWater: 4, LiveBytes: 512, HighWaterBytes: 512})
	ws.ReleaseAll()
	want("step boundary", WorkspaceStats{Allocs: 4, Gets: 5, Live: 0, HighWater: 4, LiveBytes: 0, HighWaterBytes: 512})
	ws.Get(4, 4)
	ws.GetMatch(2, 8, true)
	ws.GetMatch(4, 4, true)
	ws.Get(1, 1)
	want("next step", WorkspaceStats{Allocs: 5, Gets: 9, Live: 4, HighWater: 4, LiveBytes: 392, HighWaterBytes: 512})
}

// TestWorkspacePhantomReplayAllocatesOnce replays the shape of a timed
// phantom step — a forward phase, the recompute forward, and a backward whose
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
