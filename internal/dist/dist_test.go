package dist

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func runWorld(t *testing.T, n int, fn func(w *Worker) error) *Cluster {
	t.Helper()
	c := New(Config{WorldSize: n})
	if err := c.Run(fn); err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	return c
}

func TestAllReduceSumsAndIsolates(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			want := float64(n*(n-1)) / 2 // Σ ranks
			var mu sync.Mutex
			results := make([]*tensor.Matrix, n)
			runWorld(t, n, func(w *Worker) error {
				m := tensor.New(3, 2)
				m.Fill(float64(w.Rank()))
				sum := w.Cluster().WorldGroup().AllReduceInto(w, m, tensor.New(3, 2))
				mu.Lock()
				results[w.Rank()] = sum
				mu.Unlock()
				// The result is the caller's own buffer again the moment the
				// call returns: scaling it here must not disturb the peers'
				// copies.
				tensor.ScaleInPlace(sum, float64(w.Rank()+1))
				if m.At(0, 0) != float64(w.Rank()) {
					return fmt.Errorf("allreduce mutated its input")
				}
				return nil
			})
			for r, m := range results {
				if got := m.At(2, 1) / float64(r+1); got != want {
					t.Fatalf("rank %d sum %g, want %g", r, got, want)
				}
			}
		})
	}
}

func TestReduceDeliversToRootOnly(t *testing.T) {
	const n = 6
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := tensor.New(2, 2)
		m.Fill(1)
		var dst *tensor.Matrix
		if w.Rank() == 2 {
			dst = tensor.New(2, 2)
		}
		out := g.ReduceInto(w, 2, m, dst)
		if w.Rank() == 2 {
			if out == nil || out.At(0, 0) != n {
				return fmt.Errorf("root sum wrong: %v", out)
			}
		} else if out != nil {
			return fmt.Errorf("non-root received %v", out)
		}
		return nil
	})
}

func TestAllGatherCanonicalOrder(t *testing.T) {
	runWorld(t, 5, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := tensor.New(1, 1)
		m.Set(0, 0, float64(10*w.Rank()))
		parts := g.AllGatherInto(w, m, tensor.New(5, 1))
		for i := 0; i < 5; i++ {
			if parts.At(i, 0) != float64(10*i) {
				return fmt.Errorf("slot %d holds %g", i, parts.At(i, 0))
			}
		}
		return nil
	})
}

func TestSubgroupCollectivesRunConcurrently(t *testing.T) {
	// Two disjoint groups must progress independently.
	runWorld(t, 6, func(w *Worker) error {
		var g *Group
		if w.Rank() < 3 {
			g = w.Cluster().Group(0, 1, 2)
		} else {
			g = w.Cluster().Group(3, 4, 5)
		}
		m := tensor.New(1, 1)
		m.Set(0, 0, 1)
		for i := 0; i < 10; i++ {
			g.AllReduceInto(w, m, m)
		}
		if m.At(0, 0) != 59049 { // 3^10
			return fmt.Errorf("rank %d: %g", w.Rank(), m.At(0, 0))
		}
		return nil
	})
}

// TestPhantomPropagation drives every collective with shape-only payloads
// and checks shape, phantomness, clock equality with the real run, and
// identical traffic statistics — the contract phantom mode rests on.
func TestPhantomPropagation(t *testing.T) {
	exercise := func(phantom bool) (*Cluster, error) {
		c := New(Config{WorldSize: 4})
		err := c.Run(func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			mk := func(r, cl int) *tensor.Matrix {
				if phantom {
					return tensor.NewPhantom(r, cl)
				}
				m := tensor.New(r, cl)
				m.Fill(float64(w.Rank() + 1))
				return m
			}
			sum := g.AllReduceInto(w, mk(3, 5), mk(3, 5))
			if phantom && !sum.Phantom() {
				return errors.New("allreduce lost phantomness")
			}
			if sum.Rows != 3 || sum.Cols != 5 {
				return fmt.Errorf("allreduce shape %dx%d", sum.Rows, sum.Cols)
			}

			var rdst *tensor.Matrix
			if w.Rank() == 0 {
				rdst = mk(2, 2)
			}
			red := g.ReduceInto(w, 0, mk(2, 2), rdst)
			if w.Rank() == 0 {
				if phantom && !red.Phantom() {
					return errors.New("reduce lost phantomness")
				}
				if red.Rows != 2 || red.Cols != 2 {
					return fmt.Errorf("reduce shape %dx%d", red.Rows, red.Cols)
				}
			}

			var payload *tensor.Matrix
			if w.Rank() == 2 {
				payload = mk(4, 1)
			}
			bc := g.BroadcastInto(w, 2, payload, mk(4, 1))
			if phantom && !bc.Phantom() {
				return errors.New("broadcast lost phantomness")
			}
			if bc.Rows != 4 || bc.Cols != 1 {
				return fmt.Errorf("broadcast shape %dx%d", bc.Rows, bc.Cols)
			}

			parts := g.AllGatherInto(w, mk(1, 6), mk(4, 6))
			if phantom && !parts.Phantom() {
				return errors.New("allgather lost phantomness")
			}
			if parts.Rows != 4 || parts.Cols != 6 {
				return fmt.Errorf("allgather shape %dx%d", parts.Rows, parts.Cols)
			}

			g.Barrier(w)

			if w.Rank() == 0 {
				w.Send(1, mk(2, 3))
			}
			if w.Rank() == 1 {
				got := w.Recv(0)
				if phantom && !got.Phantom() {
					return errors.New("send lost phantomness")
				}
				if got.Rows != 2 || got.Cols != 3 {
					return fmt.Errorf("recv shape %dx%d", got.Rows, got.Cols)
				}
			}
			return nil
		})
		return c, err
	}

	real, err := exercise(false)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := exercise(true)
	if err != nil {
		t.Fatal(err)
	}
	if real.MaxClock() <= 0 || real.MaxClock() != ph.MaxClock() {
		t.Fatalf("phantom clock %g != real clock %g", ph.MaxClock(), real.MaxClock())
	}
	rs, ps := real.Stats(), ph.Stats()
	if rs.Messages != ps.Messages || rs.Bytes != ps.Bytes {
		t.Fatalf("phantom stats %+v != real stats %+v", ps, rs)
	}
	for op, re := range rs.PerOp {
		if ps.PerOp[op] != re {
			t.Fatalf("op %s: phantom %+v != real %+v", op, ps.PerOp[op], re)
		}
	}
}

func TestCollectiveClocksAgree(t *testing.T) {
	c := New(Config{WorldSize: 3})
	if err := c.Run(func(w *Worker) error {
		w.Compute(float64(w.Rank()+1) * 1e9) // skew the clocks
		m := tensor.New(8, 8)
		w.Cluster().WorldGroup().AllReduceInto(w, m, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// After a collective every participant sits at the same simulated time:
	// max(skews) + op cost, so MaxClock exceeds the largest skew.
	base := 3e9 / MeluxinaModel().FLOPS
	if c.MaxClock() <= base {
		t.Fatalf("clock %g not advanced past the slowest member %g", c.MaxClock(), base)
	}
}

func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	clockFor := func(ranks []int) float64 {
		c := New(Config{WorldSize: 8, GPUsPerNode: 4})
		if err := c.Run(func(w *Worker) error {
			g := w.Cluster().Group(ranks...)
			if g.Index(w.Rank()) < 0 {
				return nil
			}
			dst := tensor.New(64, 64)
			var payload *tensor.Matrix
			if w.Rank() == ranks[0] {
				payload = dst
			}
			g.BroadcastInto(w, ranks[0], payload, dst)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	intra := clockFor([]int{0, 1, 2, 3}) // one node
	inter := clockFor([]int{0, 2, 4, 6}) // spans both nodes
	if !(intra > 0 && intra < inter) {
		t.Fatalf("intra-node broadcast %g should be cheaper than inter-node %g", intra, inter)
	}
}

func TestSendRecvCausality(t *testing.T) {
	c := New(Config{WorldSize: 2})
	if err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			w.Compute(1e12) // sender is far in the simulated future
			m := tensor.New(4, 4)
			w.Send(1, m)
		} else {
			w.Recv(0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	senderTime := 1e12 / MeluxinaModel().FLOPS
	if c.MaxClock() <= senderTime {
		t.Fatalf("receiver clock %g must trail the sender's send time %g", c.MaxClock(), senderTime)
	}
}

func TestGroupIdentityAndValidation(t *testing.T) {
	c := New(Config{WorldSize: 4})
	if c.Group(0, 2) != c.Group(0, 2) {
		t.Fatal("same rank list must return the cached group")
	}
	if c.Group(0, 2) == c.Group(2, 0) {
		t.Fatal("different canonical orders are different groups")
	}
	g := c.Group(3, 1)
	if g.Size() != 2 || g.Index(3) != 0 || g.Index(1) != 1 || g.Index(0) != -1 {
		t.Fatalf("group bookkeeping wrong: %v", g.Ranks())
	}
	r := g.Ranks()
	r[0] = 99
	if g.Ranks()[0] != 3 {
		t.Fatal("Ranks must return a private copy")
	}
	for name, bad := range map[string][]int{"empty": {}, "out of range": {0, 4}, "negative": {-1}, "duplicate": {1, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s rank list must panic", name)
				}
			}()
			c.Group(bad...)
		}()
	}
}

// TestGroupLookupKey: rank lists that spell alike are different groups, a
// list longer than the key's stack buffer still finds its group, and finding
// a cached group allocates nothing — mesh.NewProc asks for four on every
// rank of every cluster a replay builds.
func TestGroupLookupKey(t *testing.T) {
	c := New(Config{WorldSize: 200})
	if c.Group(1, 12) == c.Group(11, 2) || c.Group(1, 12) == c.Group(112) || c.Group(1, 1+1, 0) == c.Group(1, 20) {
		t.Fatal("rank lists whose digits run together alike must stay different groups")
	}
	world := c.WorldGroup() // "0,1,…,199" is 689 bytes of key
	if world.Size() != 200 || c.WorldGroup() != world {
		t.Fatal("a long rank list must build one group and find it again")
	}
	row := []int{64, 65, 66, 67, 68, 69, 70, 71}
	g := c.Group(row...)
	if allocs := testing.AllocsPerRun(20, func() {
		if c.Group(row...) != g {
			t.Fatal("lookup missed the cached group")
		}
	}); allocs != 0 {
		t.Errorf("looking up a cached group allocates %v times, want 0", allocs)
	}
}

func TestRunErrorNamesWorkerAndPoisons(t *testing.T) {
	sentinel := errors.New("boom")
	c := New(Config{WorldSize: 3})
	err := c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return sentinel
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("bad error: %v", err)
	}
	if err := c.Run(func(w *Worker) error { return nil }); err == nil {
		t.Fatal("poisoned cluster must refuse further runs")
	}
}

func TestDeterministicTreeReduction(t *testing.T) {
	// Floating-point reduction order is fixed by the tree, not by goroutine
	// scheduling: repeated runs must agree bitwise.
	sum := func() float64 {
		var out float64
		var mu sync.Mutex
		runWorld(t, 7, func(w *Worker) error {
			m := tensor.New(1, 1)
			m.Set(0, 0, 0.1*float64(w.Rank()+1))
			s := w.Cluster().WorldGroup().AllReduceInto(w, m, m)
			mu.Lock()
			if w.Rank() == 3 {
				out = s.At(0, 0)
			}
			mu.Unlock()
			return nil
		})
		return out
	}
	first := sum()
	for i := 0; i < 20; i++ {
		if got := sum(); got != first {
			t.Fatalf("run %d: %g != %g", i, got, first)
		}
	}
}

func TestReduceShapeMismatchPanics(t *testing.T) {
	// Program divergence (members contributing different shapes to one
	// reduction) must fail loudly, not silently prefix-sum — including on
	// groups larger than two, where the centralized combine does the adds.
	c := New(Config{WorldSize: 3})
	err := c.Run(func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := tensor.New(2, 2)
		if w.Rank() == 1 {
			m = tensor.New(4, 4)
		}
		g.AllReduceInto(w, m, m)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "contributed") {
		t.Fatalf("expected a descriptive shape-mismatch abort, got %v", err)
	}
}
