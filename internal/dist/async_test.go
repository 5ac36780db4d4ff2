package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestAsyncCollectivesMatchBlockingBitwise drives the three nonblocking
// collectives next to their blocking twins on the same inputs and demands
// bitwise identical results — the contract that lets the SUMMA pipelines
// and the gradient sync switch freely between the two forms.
func TestAsyncCollectivesMatchBlockingBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		const root = 1
		rootIdx := root % n
		bcGot := make([]*tensor.Matrix, n)
		bcWant := make([]*tensor.Matrix, n)
		var redGot, redWant *tensor.Matrix
		arGot := make([]*tensor.Matrix, n)
		arWant := make([]*tensor.Matrix, n)
		runWorld(t, n, func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			r := w.Rank()

			// Broadcast-into.
			var payload *tensor.Matrix
			dst := tensor.New(3, 5)
			if r == rootIdx {
				payload, dst = fillRank(rootIdx, 3, 5), nil
				dst = payload
			}
			h := g.IBroadcastInto(w, rootIdx, payload, dst)
			h.Wait()
			bcGot[r] = dst.Clone()
			dst2 := tensor.New(3, 5)
			if r == rootIdx {
				g.BroadcastInto(w, rootIdx, fillRank(rootIdx, 3, 5), dst2)
			} else {
				g.BroadcastInto(w, rootIdx, nil, dst2)
			}
			bcWant[r] = dst2

			// Reduce-into.
			var rdst *tensor.Matrix
			if r == rootIdx {
				rdst = tensor.New(4, 4)
			}
			h = g.IReduceInto(w, rootIdx, fillRank(r, 4, 4), rdst)
			h.Wait()
			var rdst2 *tensor.Matrix
			if r == rootIdx {
				redGot = rdst
				rdst2 = tensor.New(4, 4)
			}
			g.ReduceInto(w, rootIdx, fillRank(r, 4, 4), rdst2)
			if r == rootIdx {
				redWant = rdst2
			}

			// All-reduce-into, in place.
			m := fillRank(r, 3, 3)
			h = g.IAllReduceInto(w, m, m)
			h.Wait()
			arGot[r] = m
			m2 := fillRank(r, 3, 3)
			g.AllReduceInto(w, m2, m2)
			arWant[r] = m2
			return nil
		})
		for r := 0; r < n; r++ {
			if !bcGot[r].Equal(bcWant[r]) {
				t.Fatalf("n=%d rank %d: IBroadcastInto differs from BroadcastInto", n, r)
			}
			if !arGot[r].Equal(arWant[r]) {
				t.Fatalf("n=%d rank %d: IAllReduceInto differs from AllReduceInto", n, r)
			}
		}
		if !redGot.Equal(redWant) {
			t.Fatalf("n=%d: IReduceInto differs bitwise from ReduceInto", n)
		}
	}
}

// TestAsyncOverlapChargesMaxNotSum pins the simulated-time semantics of the
// nonblocking path: compute performed between issue and Wait overlaps the
// collective, so the post-Wait clock is max(comm finish, compute finish)
// rather than their sum, and the hidden-comm statistics see the overlap.
func TestAsyncOverlapChargesMaxNotSum(t *testing.T) {
	const flops = 1e9
	elapsed := func(compute bool, async bool) (clock, hidden, total float64) {
		c := New(Config{WorldSize: 4})
		if err := c.Run(func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			m := tensor.New(64, 64)
			if async {
				h := g.IAllReduceInto(w, m, m)
				if compute {
					w.Compute(flops)
				}
				h.Wait()
			} else {
				if compute {
					w.Compute(flops)
				}
				g.AllReduceInto(w, m, m)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		h, tot := c.Overlap()
		return c.MaxClock(), h, tot
	}

	commOnly, _, _ := elapsed(false, false)
	compOnly := flops / MeluxinaModel().FLOPS
	serial, hidden, _ := elapsed(true, false)
	if serial <= commOnly || serial <= compOnly {
		t.Fatalf("blocking run %g should pay comm %g plus compute %g", serial, commOnly, compOnly)
	}
	if hidden != 0 {
		t.Fatalf("blocking run hid %g seconds of comm", hidden)
	}
	overlapped, hidden, total := elapsed(true, true)
	wantMax := commOnly
	if compOnly > wantMax {
		wantMax = compOnly
	}
	if relDiffF(overlapped, wantMax) > 1e-12 {
		t.Fatalf("overlapped run %g, want max(comm %g, compute %g)", overlapped, commOnly, compOnly)
	}
	if total <= 0 || hidden <= 0 {
		t.Fatalf("overlap stats hidden=%g total=%g, want both positive", hidden, total)
	}
}

func relDiffF(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	return d / m
}

// TestGroupChannelSerialisesOperations pins the per-group comm model: two
// back-to-back nonblocking broadcasts on one group serialise (the second
// starts only when the first finishes), while the same two operations on
// disjoint groups overlap in simulated time.
func TestGroupChannelSerialisesOperations(t *testing.T) {
	oneGroup := func() float64 {
		c := New(Config{WorldSize: 2})
		if err := c.Run(func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			m := tensor.New(64, 64)
			d1, d2 := tensor.New(64, 64), tensor.New(64, 64)
			var h1, h2 Handle
			if w.Rank() == 0 {
				h1 = g.IBroadcastInto(w, 0, m, d1)
				h2 = g.IBroadcastInto(w, 0, m.Clone(), d2)
			} else {
				h1 = g.IBroadcastInto(w, 0, nil, d1)
				h2 = g.IBroadcastInto(w, 0, nil, d2)
			}
			h1.Wait()
			h2.Wait()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}()
	single := func() float64 {
		c := New(Config{WorldSize: 2})
		if err := c.Run(func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			d := tensor.New(64, 64)
			if w.Rank() == 0 {
				g.BroadcastInto(w, 0, tensor.New(64, 64), d)
			} else {
				g.BroadcastInto(w, 0, nil, d)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}()
	if relDiffF(oneGroup, 2*single) > 1e-12 {
		t.Fatalf("two ops on one group took %g, want serialised 2×%g", oneGroup, single)
	}

	twoGroups := func() float64 {
		c := New(Config{WorldSize: 4})
		if err := c.Run(func(w *Worker) error {
			var g *Group
			if w.Rank() < 2 {
				g = w.Cluster().Group(0, 1)
			} else {
				g = w.Cluster().Group(2, 3)
			}
			root := g.Ranks()[0]
			d := tensor.New(64, 64)
			var h Handle
			if w.Rank() == root {
				h = g.IBroadcastInto(w, root, tensor.New(64, 64), d)
			} else {
				h = g.IBroadcastInto(w, root, nil, d)
			}
			h.Wait()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}()
	if relDiffF(twoGroups, single) > 1e-12 {
		t.Fatalf("disjoint groups took %g, want overlapped %g", twoGroups, single)
	}
}

// TestHandleMisusePanics covers the borrow discipline: waiting twice,
// Putting a buffer lent to an in-flight collective, and releasing a step
// boundary across an unwaited handle are all programming errors that must
// fail loudly, not corrupt a pool.
func TestHandleMisusePanics(t *testing.T) {
	expectPanic := func(name, want string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			if msg, ok := r.(string); ok && want != "" && !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q missing %q", name, msg, want)
			}
		}()
		fn()
	}

	c := New(Config{WorldSize: 1})
	if err := c.Run(func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		ws := w.Workspace()

		// Double Wait.
		m := ws.Get(2, 2)
		h := g.IAllReduceInto(w, m, m)
		h.Wait()
		expectPanic("double wait", "twice", func() { h.Wait() })

		// Put before Wait.
		h2 := g.IAllReduceInto(w, m, m)
		expectPanic("put before wait", "borrowed", func() { ws.Put(m) })

		// ReleaseAll with an in-flight handle.
		expectPanic("release all before wait", "borrowed", func() { ws.ReleaseAll() })

		h2.Wait()
		ws.Put(m) // borrow released: recycling is legal again
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHandleCopyCannotWaitTwice closes the loophole a value-type Handle
// opens: a second Wait through a COPY of an already-waited handle must
// panic like the original would, both while the round is still live and
// after it has been recycled into a later operation.
func TestHandleCopyCannotWaitTwice(t *testing.T) {
	c := New(Config{WorldSize: 1})
	if err := c.Run(func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := tensor.New(2, 2)

		h := g.IAllReduceInto(w, m, m)
		cp := h
		h.Wait()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Wait through a copy (live round) should panic")
				}
			}()
			cp.Wait()
		}()

		// Recycle the round through further operations, then try the stale
		// copy again: the generation stamp must reject it.
		h2 := g.IAllReduceInto(w, m, m)
		cp2 := h2
		h2.Wait()
		for i := 0; i < 3; i++ {
			g.Barrier(w)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Wait through a stale copy (recycled round) should panic")
				}
			}()
			cp2.Wait()
		}()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundPoolDoubles pins the pool's growth: a group that has had three
// rounds in flight owns four, so the fourth — which on a training step
// arrives only when the host lets one member run far enough ahead — costs
// no allocation; a fifth doubles the pool again. The rounds of one batch
// share their backing arrays, so the sums are checked too: every round must
// see its own slots and nobody else's.
func TestRoundPoolDoubles(t *testing.T) {
	c := New(Config{WorldSize: 2})
	g := c.WorldGroup()
	inFlight := func(k int) {
		t.Helper()
		if err := c.Run(func(w *Worker) error {
			ms := make([]*tensor.Matrix, k)
			hs := make([]Handle, k)
			for i := range ms {
				ms[i] = tensor.New(1, 3)
				ms[i].Fill(float64((i + 1) * (w.Rank() + 1)))
				hs[i] = g.IAllReduceInto(w, ms[i], ms[i])
			}
			for i, h := range hs {
				h.Wait()
				for _, v := range ms[i].Data {
					if want := float64(3 * (i + 1)); v != want {
						return fmt.Errorf("rank %d round %d of %d: sum %v, want %v", w.Rank(), i, k, v, want)
					}
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(g.open) != 0 || len(g.spare) != g.made {
			t.Fatalf("after %d in flight: %d open, %d spare of %d made", k, len(g.open), len(g.spare), g.made)
		}
	}
	for _, step := range []struct{ k, made int }{{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {3, 8}} {
		inFlight(step.k)
		if g.made != step.made {
			t.Fatalf("%d rounds in flight: the group owns %d, want %d", step.k, g.made, step.made)
		}
	}
	if cap(g.open) < g.made || cap(g.spare) < g.made {
		t.Fatalf("open has room for %d and spare for %d of %d rounds: join or retire would regrow them", cap(g.open), cap(g.spare), g.made)
	}
}
