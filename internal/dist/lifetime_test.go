package dist

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// settleGoroutines waits up to 5 s for the goroutine count to fall to base,
// running a collection each round so that cleanups of dropped clusters get
// their turn.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// quietGoroutines collects until the goroutine count holds still — the rank
// goroutines of clusters earlier tests dropped have ended — and returns it.
func quietGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 3 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// TestLifetimeRunAllocatesNothing: once its rank goroutines are running, a
// Run is publish, wake n, wait n — no goroutine spawned, no slice made — so a
// warm cluster's Run of a prebuilt function allocates nothing, barrier
// included.
func TestLifetimeRunAllocatesNothing(t *testing.T) {
	for _, n := range []int{4, 8} {
		c := New(Config{WorldSize: n})
		world := c.WorldGroup()
		fn := func(w *Worker) error {
			world.Barrier(w)
			return nil
		}
		for i := 0; i < 3; i++ {
			if err := c.Run(fn); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := c.Run(fn); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d ranks: a warm Run allocates %v times, want 0", n, allocs)
		}
		c.Close()
	}
}

// TestLifetimeConstructionAllocations pins what building a cluster
// allocates: a rank's traffic, step samples and failure live on its Worker,
// so a per-rank side store that comes back shows here as extra objects.
func TestLifetimeConstructionAllocations(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() *Cluster
		max   float64
	}{
		{"NewSolo(64)", func() *Cluster { return NewSolo(Config{WorldSize: 64}) }, 5},
		{"New(8)", func() *Cluster { return New(Config{WorldSize: 8}) }, 12},
	} {
		if allocs := testing.AllocsPerRun(20, func() { tc.build() }); allocs > tc.max {
			t.Errorf("%s allocates %v objects, want at most %v", tc.name, allocs, tc.max)
		}
	}
}

// dropCluster builds an 8-rank cluster, runs it once so its rank goroutines
// are parked, and returns only a weak pointer to it.
//
//go:noinline
func dropCluster(t *testing.T) weak.Pointer[Cluster] {
	c := New(Config{WorldSize: 8})
	if err := c.Run(func(w *Worker) error {
		w.Workspace().Put(w.Workspace().Get(64, 64))
		c.WorldGroup().Barrier(w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return weak.Make(c)
}

// TestLifetimeDroppedClusterCollected: a parked rank holds its start slot
// and nothing else, so a cluster nobody references and nobody closed is
// still garbage — its workers and workspaces with it — and its rank
// goroutines end once the collector has run its cleanup.
func TestLifetimeDroppedClusterCollected(t *testing.T) {
	base := quietGoroutines()
	wp := dropCluster(t)
	if n := runtime.NumGoroutine(); n < base+8 {
		t.Fatalf("%d goroutines with the cluster parked, %d before: the ranks are not parked", n, base)
	}
	deadline := time.Now().Add(5 * time.Second)
	for wp.Value() != nil && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if wp.Value() != nil {
		t.Fatal("the dropped cluster is still reachable: a parked rank pins it")
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines before the cluster, %d after it was collected", base, n)
	}
}

// TestLifetimeClose: Close ends the rank goroutines at once, a second Close
// is a no-op, a Run after Close is an error rather than a hang, and a Close
// issued from inside a Run takes effect when that Run returns.
func TestLifetimeClose(t *testing.T) {
	base := quietGoroutines()
	c := New(Config{WorldSize: 4})
	barrier := func(w *Worker) error {
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	}
	if err := c.Run(barrier); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close()
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines before the cluster, %d after Close", base, n)
	}
	runAfter := func(c *Cluster) error {
		done := make(chan error, 1)
		go func() { done <- c.Run(barrier) }()
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("a Run after Close hangs")
			return nil
		}
	}
	if err := runAfter(c); err == nil {
		t.Error("a Run after Close succeeded")
	}

	inner := New(Config{WorldSize: 4})
	if err := inner.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			inner.Close()
		}
		return barrier(w)
	}); err != nil {
		t.Fatalf("the Run that Closed its own cluster: %v", err)
	}
	if err := runAfter(inner); err == nil {
		t.Error("a Run after a Close from inside the previous Run succeeded")
	}

	never := New(Config{WorldSize: 4}) // closed before its ranks ever started
	never.Close()
	solo := NewSolo(Config{WorldSize: 4})
	solo.Close()
	for name, c := range map[string]*Cluster{"never run": never, "solo": solo} {
		if err := runAfter(c); err == nil {
			t.Errorf("%s: a Run after Close succeeded", name)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Errorf("%d goroutines before the clusters, %d after", base, n)
	}
}

// TestLifetimeGoexitRank: a worker that ends its own goroutine
// (runtime.Goexit, as t.FailNow does) still counts as done, and its rank
// gets a fresh goroutine, so the next Run neither hangs nor loses the rank.
func TestLifetimeGoexitRank(t *testing.T) {
	c := New(Config{WorldSize: 4})
	defer c.Close()
	if err := c.Run(func(w *Worker) error {
		if w.Rank() == 2 {
			runtime.Goexit()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	ranks := make([]bool, 4)
	go func() {
		done <- c.Run(func(w *Worker) error {
			ranks[w.Rank()] = true
			w.Cluster().WorldGroup().Barrier(w)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the Run after a rank's Goexit hangs")
	}
	for r, ran := range ranks {
		if !ran {
			t.Errorf("rank %d did not run after rank 2's Goexit", r)
		}
	}
}
