package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// TestRunReentrantNested: a worker that calls Run on its own cluster gets
// ErrRunActive back instead of a second set of goroutines driving the same
// clocks and parking slots, and the outer Run carries on undisturbed.
func TestRunReentrantNested(t *testing.T) {
	c := New(Config{WorldSize: 4})
	err := c.Run(func(w *Worker) error {
		if w.Rank() == 2 {
			inner := c.Run(func(*Worker) error {
				t.Error("nested Run started workers")
				return nil
			})
			if !errors.Is(inner, ErrRunActive) {
				return fmt.Errorf("nested Run returned %v, want ErrRunActive", inner)
			}
		}
		c.WorldGroup().Barrier(w)
		return nil
	})
	if err != nil {
		t.Fatalf("outer run: %v", err)
	}
	if err := c.Run(func(w *Worker) error { c.WorldGroup().Barrier(w); return nil }); err != nil {
		t.Fatalf("run after the refused nested Run: %v", err)
	}
}

// TestRunReentrantConcurrent: a second goroutine's Run on a busy cluster is
// refused the same way, and the cluster accepts a Run again once the first
// has returned.
func TestRunReentrantConcurrent(t *testing.T) {
	c := New(Config{WorldSize: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	first := make(chan error, 1)
	go func() {
		first <- c.Run(func(w *Worker) error {
			if w.Rank() == 0 {
				close(started)
			}
			<-release
			c.WorldGroup().Barrier(w)
			return nil
		})
	}()
	<-started
	err := c.Run(func(*Worker) error {
		t.Error("concurrent Run started workers")
		return nil
	})
	if !errors.Is(err, ErrRunActive) {
		t.Errorf("concurrent Run returned %v, want ErrRunActive", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := c.Run(func(w *Worker) error { c.WorldGroup().Barrier(w); return nil }); err != nil {
		t.Fatalf("run after both returned: %v", err)
	}
}

// mesh222 returns rank r's row, column and depth communicators on a [2,2,2]
// mesh (rank = 4i + 2j + k) and the world group.
func mesh222(w *Worker) (row, col, depth, world *Group) {
	c, r := w.Cluster(), w.Rank()
	return c.Group(r&^2, r|2), c.Group(r&^4, r|4), c.Group(r&^1, r|1), c.WorldGroup()
}

// abortSchedule is the op sequence the abort-anywhere test fails inside:
// blocking and nonblocking collectives on all three mesh axes and the world
// group, a lending broadcast among them, handles held across other
// operations and waited out of issue order, and a Send/Recv exchange. The victim dies ahead of one of the ops.
func abortSchedule(w *Worker) []func() {
	row, col, depth, world := mesh222(w)
	r := w.Rank()
	a, b := tensor.New(2, 4), tensor.New(2, 4)
	part, sum := tensor.New(8, 4), tensor.New(1, 4)
	var red *tensor.Matrix
	if depth.Index(r) == 0 {
		red = tensor.New(2, 4)
	}
	var lend *tensor.Matrix // the depth group's second member lends, the first borrows
	if depth.Index(r) == 1 {
		lend = b
	}
	var hb, hr, hs, hl Handle
	return []func(){
		func() { row.AllReduceInto(w, a, a) },
		func() { hb = col.IBroadcastInto(w, col.Ranks()[0], b, b) },
		func() { depth.ReduceInto(w, depth.Ranks()[0], a, red) }, // blocks while hb is in flight
		func() { hb.Wait() },
		func() {
			if r%2 == 0 {
				w.Send(r+1, tensor.New(1, 4))
				w.Recv(r + 1)
			} else {
				w.Recv(r - 1)
				w.Send(r-1, tensor.New(1, 4))
			}
		},
		func() { hr = row.IAllReduceInto(w, a, a) },
		func() { hs = world.IReduceScatterInto(w, part, sum) },
		func() { hl = depth.IBroadcastLend(w, depth.Ranks()[1], lend) },
		func() { hs.Wait() },
		func() { hr.Wait() },
		func() { hl.Wait() },
		func() { world.Barrier(w) },
		func() { col.AllGatherInto(w, sum, tensor.New(2, 4)) },
	}
}

// TestAbortAnywhereNoLeak kills each rank ahead of each op of abortSchedule,
// by returned error and by panic, and checks what a driver relies on: Run
// returns — every peer unwound, wherever it was parked — within a deadline,
// the error is the victim's *Failure, and no goroutine outlives the Run.
func TestAbortAnywhereNoLeak(t *testing.T) {
	nops := 0
	if err := New(Config{WorldSize: 8}).Run(func(w *Worker) error {
		ops := abortSchedule(w)
		if w.Rank() == 0 {
			nops = len(ops)
		}
		for _, op := range ops {
			op()
		}
		return nil
	}); err != nil {
		t.Fatalf("the schedule does not run clean: %v", err)
	}
	cause := errors.New("injected")
	for _, panics := range []bool{false, true} {
		for victim := 0; victim < 8; victim++ {
			for at := 0; at < nops; at++ {
				base := runtime.NumGoroutine()
				c := New(Config{WorldSize: 8})
				done := make(chan error, 1)
				go func() {
					done <- c.Run(func(w *Worker) error {
						for i, op := range abortSchedule(w) {
							if w.Rank() == victim && i == at {
								if panics {
									panic(cause)
								}
								return cause
							}
							op()
						}
						return nil
					})
				}()
				var err error
				select {
				case err = <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("rank %d dying ahead of op %d (panic=%v): a peer never unwound", victim, at, panics)
				}
				var f *Failure
				if !errors.As(err, &f) || f.Rank != victim || f.Panicked != panics {
					t.Fatalf("rank %d dying ahead of op %d (panic=%v): Run returned %v", victim, at, panics, err)
				}
				if !panics && !errors.Is(err, cause) {
					t.Fatalf("rank %d dying ahead of op %d: failure does not wrap the cause: %v", victim, at, err)
				}
				// The workers exit just after Run's WaitGroup lets go of them.
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > base {
					if time.Now().After(deadline) {
						t.Fatalf("rank %d dying ahead of op %d (panic=%v): %d goroutines before the Run, %d after",
							victim, at, panics, base, runtime.NumGoroutine())
					}
					runtime.Gosched()
				}
			}
		}
	}
}

// TestRendezvousFinishPanicNoLeak makes the finisher panic inside the group
// lock: ranks 0-2 issue a nonblocking 2×2 all-reduce, rank 3 arrives last
// with a 3×2 payload, so combining the slots panics on the shape mismatch.
// Only once rank 3 is unwinding do ranks 0-2 Wait, which takes the group
// lock to register for a wake-up; the lock must have been released on the
// panic path, or they hang where no abort token reaches them. Run must
// return rank 3's Failure and leave no goroutine behind.
func TestRendezvousFinishPanicNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	c := New(Config{WorldSize: 4})
	var issued sync.WaitGroup
	issued.Add(3)
	unwinding := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.Run(func(w *Worker) error {
			world := w.Cluster().WorldGroup()
			if w.Rank() == 3 {
				defer close(unwinding)
				issued.Wait()
				m := tensor.New(3, 2)
				world.IAllReduceInto(w, m, m)
				return errors.New("the mismatched arrival did not panic")
			}
			m := tensor.New(2, 2)
			h := world.IAllReduceInto(w, m, m)
			issued.Done()
			<-unwinding
			h.Wait()
			return nil
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a member waiting on the round whose finish panicked never unwound")
	}
	var f *Failure
	if !errors.As(err, &f) || f.Rank != 3 || !f.Panicked {
		t.Fatalf("Run returned %v, want rank 3's panic as a Failure", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the Run, %d after", base, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

// stressOutcome is everything a run of stressSchedule leaves behind that a
// lost or misdirected wake-up could disturb.
type stressOutcome struct {
	clocks        []float64
	sums          []uint64 // per-rank digest of every collective result
	hidden, total float64
	stats         Stats
}

// stressSchedule runs rounds of mixed traffic on a [2,2,2] mesh: three
// nonblocking collectives on different groups per round, waited in an order
// that rotates with the round and differs between ranks, rank- and
// round-dependent compute in between so that who arrives last keeps
// changing, and a blocking collective to close the round.
func stressSchedule(t *testing.T, rounds int) stressOutcome {
	t.Helper()
	out := stressOutcome{clocks: make([]float64, 8), sums: make([]uint64, 8)}
	c := New(Config{WorldSize: 8})
	err := c.Run(func(w *Worker) error {
		row, col, _, world := mesh222(w)
		r := w.Rank()
		a, b := tensor.New(1, 4), tensor.New(1, 4)
		part, blk := tensor.New(8, 2), tensor.New(1, 2)
		digest := uint64(r)
		fold := func(m *tensor.Matrix) {
			for _, x := range m.Data {
				digest = digest*1099511628211 ^ math.Float64bits(x)
			}
		}
		for i := 0; i < rounds; i++ {
			a.Fill(float64(r+1) / float64(i+3))
			b.Fill(float64(i)*0.1 + float64(r))
			part.Fill(float64(r*i) * 0.01)
			hs := [3]Handle{
				row.IAllReduceInto(w, a, a),
				col.IBroadcastInto(w, col.Ranks()[i%2], b, b),
				world.IReduceScatterInto(w, part, blk),
			}
			w.Compute(float64((r*7+i*13)%11) * 1e6)
			first := (i + r) % 3
			hs[first].Wait()
			hs[(first+2)%3].Wait()
			w.Compute(float64((r+i)%5) * 1e6)
			hs[(first+1)%3].Wait()
			fold(a)
			fold(b)
			fold(blk)
			if i%2 == 0 {
				world.AllReduceInto(w, a, a)
				fold(a)
			} else {
				world.Barrier(w)
			}
		}
		out.clocks[r], out.sums[r] = w.Clock(), digest
		return nil
	})
	if err != nil {
		t.Fatalf("stress run: %v", err)
	}
	out.hidden, out.total = c.Overlap()
	out.stats = c.Stats()
	return out
}

// TestRendezvousLostWakeupStress replays stressSchedule at GOMAXPROCS 1 and
// N against one reference run. A lost wake-up hangs (the test times out), a
// wake-up delivered for the wrong round lets a member read an unfinished
// one, and either shows as a clock, a statistic or a result bit that
// differs — the outcome is a pure function of the schedule, whatever the
// interleaving. CI runs it under -race.
func TestRendezvousLostWakeupStress(t *testing.T) {
	rounds := 10000
	if testing.Short() {
		rounds = 1000
	}
	want := stressSchedule(t, rounds)
	for _, procs := range []int{1, max(4, runtime.NumCPU())} {
		prev := runtime.GOMAXPROCS(procs)
		got := stressSchedule(t, rounds)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS=%d: outcome differs from the reference run\n got %+v\nwant %+v", procs, got, want)
		}
	}
}
