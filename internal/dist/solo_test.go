package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// soloSchedules are SPMD programs over the world group: every rank issues
// the same collectives with the same shapes after the same compute, which is
// the symmetry a solo run stands on. Each covers one collective, blocking
// and — where the nonblocking form exists — with compute charged between
// issue and Wait, from both ends of the group where there is a root, and
// twice in a row so the group channel's lastFinish takes part. ideferred is
// the gradient queue, which grows the solo round pool past its warm size,
// and ilend the one lend a solo cluster accepts.
var soloSchedules = map[string]func(w *Worker, g *Group){
	"broadcast": func(w *Worker, g *Group) {
		n := g.Size()
		for _, root := range []int{0, n - 1, 0} {
			var payload *tensor.Matrix
			if w.Rank() == root {
				payload = tensor.NewPhantom(5, 7)
			}
			w.Compute(3e8)
			g.BroadcastInto(w, root, payload, tensor.NewPhantom(5, 7))
		}
	},
	"ibroadcast": func(w *Worker, g *Group) {
		n := g.Size()
		for _, root := range []int{n - 1, 0} {
			var payload *tensor.Matrix
			if w.Rank() == root {
				payload = tensor.NewPhantom(64, 64)
			}
			h := g.IBroadcastInto(w, root, payload, tensor.NewPhantom(64, 64))
			w.Compute(2e9)
			h.Wait()
		}
	},
	"reduce": func(w *Worker, g *Group) {
		n := g.Size()
		for _, root := range []int{0, n - 1} {
			var dst *tensor.Matrix
			if w.Rank() == root {
				dst = tensor.NewPhantom(9, 4)
			}
			w.Compute(tensor.GEMMFlops(64, 64, 64))
			g.ReduceInto(w, root, tensor.NewPhantom(9, 4), dst)
		}
	},
	"ireduce": func(w *Worker, g *Group) {
		n := g.Size()
		var hs [2]Handle
		for i, root := range []int{n - 1, 0} {
			var dst *tensor.Matrix
			if w.Rank() == root {
				dst = tensor.NewPhantom(128, 32)
			}
			hs[i] = g.IReduceInto(w, root, tensor.NewPhantom(128, 32), dst)
			w.Compute(1e9)
		}
		hs[0].Wait()
		hs[1].Wait()
	},
	"allreduce": func(w *Worker, g *Group) {
		m := tensor.NewPhantom(16, 16)
		w.Compute(1e8)
		g.AllReduceInto(w, m, m)
		g.AllReduceInto(w, m, tensor.NewPhantom(16, 16))
	},
	"iallreduce": func(w *Worker, g *Group) {
		m := tensor.NewPhantom(256, 256)
		h := g.IAllReduceInto(w, m, m)
		w.Compute(5e9) // longer than the ring: fully hidden
		h.Wait()
		h = g.IAllReduceInto(w, m, m)
		w.Compute(1e6) // far shorter: mostly exposed
		h.Wait()
	},
	"allgather": func(w *Worker, g *Group) {
		n := g.Size()
		w.Compute(2e8)
		g.AllGatherInto(w, tensor.NewPhantom(2, 3), tensor.NewPhantom(n*2, 3))
		g.AllGatherInto(w, tensor.NewPhantom(2, 3), tensor.NewPhantom(2, n*3))
	},
	"iallgather": func(w *Worker, g *Group) {
		n := g.Size()
		var hs [2]Handle
		for i, dst := range [...]*tensor.Matrix{tensor.NewPhantom(n*32, 16), tensor.NewPhantom(32, n*16)} {
			hs[i] = g.IAllGatherInto(w, tensor.NewPhantom(32, 16), dst)
			w.Compute(float64(i+1) * 3e8)
		}
		hs[0].Wait()
		hs[1].Wait()
	},
	"reducescatter": func(w *Worker, g *Group) {
		n := g.Size()
		w.Compute(2e8)
		g.ReduceScatterInto(w, tensor.NewPhantom(n*4, 6), tensor.NewPhantom(4, 6))
	},
	"ireducescatter": func(w *Worker, g *Group) {
		n := g.Size()
		h := g.IReduceScatterInto(w, tensor.NewPhantom(n*64, 64), tensor.NewPhantom(64, 64))
		w.Compute(4e8)
		h.Wait()
		w.Compute(1e8)
		g.ReduceScatterInto(w, tensor.NewPhantom(n*4, 6), tensor.NewPhantom(4, 6))
	},
	"barrier": func(w *Worker, g *Group) {
		w.Compute(1e8)
		g.Barrier(w)
		g.Barrier(w)
	},
	"ideferred": func(w *Worker, g *Group) {
		// 20 all-reduces outstanding on g while blocking ones run on the
		// same ranks in reverse order — a second group, except at n = 1 —
		// then drained in issue order.
		ranks := g.Ranks()
		slices.Reverse(ranks)
		other := w.Cluster().Group(ranks...)
		x := tensor.NewPhantom(8, 8)
		var hs [20]Handle
		for i := range hs {
			m := tensor.NewPhantom(32+i, 16)
			hs[i] = g.IAllReduceInto(w, m, m)
			w.Compute(float64(i+1) * 1e7)
			if i%4 == 3 {
				other.Barrier(w)
			} else {
				other.AllReduceInto(w, x, x)
			}
		}
		for i := range hs {
			hs[i].Wait()
			w.Compute(1e6)
		}
	},
	"ilend": func(w *Worker, g *Group) {
		for i := 0; i < 2; i++ {
			var payload *tensor.Matrix
			if w.Rank() == 0 {
				payload = tensor.NewPhantom(48, 24+i)
			}
			h := g.IBroadcastLend(w, 0, payload)
			w.Compute(1e8)
			h.Wait()
			if l := h.Lent(); l == nil || l.Rows != 48 || l.Cols != 24+i {
				panic(fmt.Sprintf("rank %d: lent %v, want the root's 48x%d", w.Rank(), l, 24+i))
			}
		}
	},
}

// TestSoloMatchesFullClusterRankZero: on a symmetric schedule rank 0 of a
// solo cluster ends with the clock, busy seconds and overlap account of rank
// 0 of the full cluster, bit for bit, and — rank 0 being in every group here
// — the same traffic statistics. Group sizes 1, 2, 3 and 8; all ranks on one
// node, and a node boundary inside the group.
func TestSoloMatchesFullClusterRankZero(t *testing.T) {
	for name, schedule := range soloSchedules {
		for _, n := range []int{1, 2, 3, 8} {
			for _, gpn := range []int{n, (n + 1) / 2} {
				cfg := Config{WorldSize: n, Machine: Machine{GPUsPerNode: gpn}}
				run := func(c *Cluster) *Worker {
					c.ResetClocks()
					if err := c.Run(func(w *Worker) error {
						schedule(w, w.Cluster().WorldGroup())
						return nil
					}); err != nil {
						t.Fatalf("%s n=%d gpn=%d: %v", name, n, gpn, err)
					}
					return c.workers[0]
				}
				full, solo := New(cfg), NewSolo(cfg)
				f, s := run(full), run(solo)
				for _, v := range []struct {
					what       string
					full, solo float64
				}{
					{"clock", f.clock, s.clock},
					{"busy", f.busy, s.busy},
					{"commTotal", f.commTotal, s.commTotal},
					{"commHidden", f.commHidden, s.commHidden},
				} {
					if math.Float64bits(v.full) != math.Float64bits(v.solo) {
						t.Errorf("%s n=%d gpn=%d: rank 0 %s full %x (%g), solo %x (%g)",
							name, n, gpn, v.what, math.Float64bits(v.full), v.full, math.Float64bits(v.solo), v.solo)
					}
				}
				if f.clock != full.MaxClock() {
					t.Fatalf("%s n=%d gpn=%d: the schedule is not symmetric: rank 0 at %g, cluster at %g", name, n, gpn, f.clock, full.MaxClock())
				}
				if n > 1 && f.commTotal == 0 {
					t.Errorf("%s n=%d gpn=%d: schedule charged no communication", name, n, gpn)
				}
				if fs, ss := full.Stats(), solo.Stats(); !reflect.DeepEqual(fs, ss) {
					t.Errorf("%s n=%d gpn=%d: stats full %+v, solo %+v", name, n, gpn, fs, ss)
				}
			}
		}
	}
}

// TestSoloSubgroupSpansItsRanksLinks: a solo group is priced by the links its
// whole rank list spans, not by where rank 0 sits.
func TestSoloSubgroupSpansItsRanksLinks(t *testing.T) {
	clock := func(ranks ...int) float64 {
		c := NewSolo(Config{WorldSize: 8, Machine: Machine{GPUsPerNode: 4}})
		if err := c.Run(func(w *Worker) error {
			m := tensor.NewPhantom(64, 64)
			w.Cluster().Group(ranks...).AllReduceInto(w, m, m)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	m := MeluxinaModel()
	if got, want := clock(0, 1), m.allReduceTime(2, 64*64*8, m.BetaIntra); got != want {
		t.Errorf("group {0,1} inside a node: clock %g, want %g", got, want)
	}
	if got, want := clock(0, 4), m.allReduceTime(2, 64*64*8, m.BetaInter); got != want {
		t.Errorf("group {0,4} across nodes: clock %g, want %g", got, want)
	}
}

// TestSoloRefusesWhatItCannotPrice: everything that would make a solo clock
// silently wrong is an error at construction or out of Run, naming the
// culprit, and the failed cluster stays poisoned like any other.
func TestSoloRefusesWhatItCannotPrice(t *testing.T) {
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panic %v, want one mentioning %q", what, r, want)
			}
		}()
		fn()
	}
	mustPanic("fault plan", "fault plan", func() {
		NewSolo(Config{WorldSize: 4, Faults: &FaultPlan{Ranks: []RankFault{{Rank: 1, From: 0, To: 9, Factor: 2}}}})
	})
	mustPanic("monitor", "monitor", func() {
		NewSolo(Config{WorldSize: 4}).AttachMonitor(MonitorConfig{})
	})
	if NewSolo(Config{WorldSize: 4, Faults: &FaultPlan{}}).Faults() != nil {
		t.Error("an empty plan is no plan, on a solo cluster too")
	}

	for op, fn := range map[string]func(w *Worker, g *Group){
		"broadcast": func(w *Worker, g *Group) { g.BroadcastInto(w, 1, nil, tensor.New(2, 2)) },
		"reduce":    func(w *Worker, g *Group) { g.ReduceInto(w, 1, tensor.New(2, 2), nil) },
		"allreduce": func(w *Worker, g *Group) {
			h := g.IAllReduceInto(w, tensor.NewPhantom(2, 2), tensor.New(2, 2))
			h.Wait()
		},
		"allgather": func(w *Worker, g *Group) { g.AllGatherInto(w, tensor.New(2, 2), tensor.NewPhantom(8, 2)) },
		"reducescatter": func(w *Worker, g *Group) {
			g.ReduceScatterInto(w, tensor.New(8, 2), tensor.New(2, 2))
		},
	} {
		c := NewSolo(Config{WorldSize: 4})
		err := c.Run(func(w *Worker) error {
			fn(w, w.Cluster().WorldGroup())
			return nil
		})
		var f *Failure
		if !errors.As(err, &f) || f.Rank != 0 || !f.Panicked ||
			!strings.Contains(err.Error(), op) || !strings.Contains(err.Error(), "solo cluster") {
			t.Errorf("%s of a real matrix: Run returned %v, want rank 0's panic naming the op and the solo cluster", op, err)
		}
		if err := c.Run(func(*Worker) error { return nil }); err == nil {
			t.Errorf("%s: the failed solo cluster ran again", op)
		}
	}
}

// TestSoloRunStartsNoGoroutine: a solo Run executes rank 0 on the caller's
// goroutine — nothing to leak, whether fn returns, errs or panics — and
// reports rank 0's failure like a full Run does.
func TestSoloRunStartsNoGoroutine(t *testing.T) {
	cause := errors.New("injected")
	for name, fn := range map[string]func(w *Worker) error{
		"clean": func(w *Worker) error { return nil },
		"error": func(w *Worker) error { return cause },
		"panic": func(w *Worker) error { panic(cause) },
	} {
		c := NewSolo(Config{WorldSize: 64})
		base := quietGoroutines()
		ranks, during := 0, 0
		err := c.Run(func(w *Worker) error {
			ranks++
			during = runtime.NumGoroutine()
			m := tensor.NewPhantom(8, 8)
			w.Cluster().WorldGroup().AllReduceInto(w, m, m)
			if got := c.Run(func(*Worker) error { return nil }); !errors.Is(got, ErrRunActive) {
				t.Errorf("%s: nested solo Run returned %v, want ErrRunActive", name, got)
			}
			return fn(w)
		})
		if ranks != 1 || during != base || runtime.NumGoroutine() != base {
			t.Errorf("%s: ran %d ranks with %d goroutines (before %d, after %d); want rank 0 alone on the caller's",
				name, ranks, during, base, runtime.NumGoroutine())
		}
		var f *Failure
		switch {
		case name == "clean" && err != nil:
			t.Errorf("clean: %v", err)
		case name != "clean" && (!errors.As(err, &f) || f.Rank != 0 || f.Panicked != (name == "panic")):
			t.Errorf("%s: Run returned %v, want rank 0's failure", name, err)
		case name == "error" && !errors.Is(err, cause):
			t.Errorf("error: failure does not wrap the cause: %v", err)
		}
	}
}

// TestSoloHandleChecks: a solo Handle refuses what a full cluster's does —
// a second Wait through a copy, a Wait on a stale copy whose round was
// recycled, a Wait on a zero Handle — with the same panic. (The solo lend
// borrower's refusal is TestBroadcastLendSoloAndPhantom's.)
func TestSoloHandleChecks(t *testing.T) {
	misuse := func(w *Worker) []string {
		g := w.Cluster().WorldGroup()
		m := tensor.NewPhantom(4, 4)
		catch := func(fn func()) (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			fn()
			return
		}
		var got []string

		h := g.IAllReduceInto(w, m, m)
		cp := h
		h.Wait()
		got = append(got, catch(cp.Wait))

		h = g.IAllReduceInto(w, m, m)
		stale := h
		h.Wait()
		for i := 0; i < 3; i++ {
			g.Barrier(w)
		}
		if w.c.solo && stale.r.soloGen == stale.gen {
			t.Error("solo: the stale copy's round was not recycled by the barriers")
		}
		got = append(got, catch(stale.Wait))

		var zero Handle
		got = append(got, catch(zero.Wait))
		return got
	}
	want := []string{waitTwiceMsg, waitTwiceMsg, "dist: Wait on a zero or already-consumed Handle"}
	for name, c := range map[string]*Cluster{"full": New(Config{WorldSize: 4}), "solo": NewSolo(Config{WorldSize: 4})} {
		if err := c.Run(func(w *Worker) error {
			if got := misuse(w); !slices.Equal(got, want) {
				t.Errorf("%s rank %d: panics %q, want %q", name, w.Rank(), got, want)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSoloNonblockingRunAllocatesNothing: a warm solo Run of a SUMMA-shaped
// schedule — on a 4×4 mesh, the next two panels prefetched on rank 0's row
// and column groups while the current ones are waited and multiplied —
// allocates nothing: the rounds come from the groups' pools and go back.
func TestSoloNonblockingRunAllocatesNothing(t *testing.T) {
	const q = 4
	c := NewSolo(Config{WorldSize: q * q})
	row, col := make([]int, q), make([]int, q)
	for i := range row {
		row[i], col[i] = i, i*q
	}
	groups := [2]*Group{c.Group(row...), c.Group(col...)}
	var panels [2][q]*tensor.Matrix
	for i := range panels {
		for k := range panels[i] {
			panels[i][k] = tensor.NewPhantom(64, 64)
		}
	}
	fn := func(w *Worker) error {
		var hs [2][2]Handle
		issue := func(k int) {
			for i, g := range groups {
				var payload *tensor.Matrix
				if k == 0 {
					payload = panels[i][k] // rank 0 owns the first panel of both
				}
				hs[i][k%2] = g.IBroadcastInto(w, g.ranks[k], payload, panels[i][k])
			}
		}
		issue(0)
		issue(1)
		for k := 0; k < q; k++ {
			hs[0][k%2].Wait()
			hs[1][k%2].Wait()
			if k+2 < q {
				issue(k + 2)
			}
			w.Compute(tensor.GEMMFlops(64, 64, 64))
		}
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
		t.Errorf("a warm solo Run of a prefetching schedule allocates %v times, want 0", allocs)
	}
}

// TestSoloRoundPoolDoubles: a solo group's pool starts at two rounds, all
// in one allocation, and doubles as growRounds does; after every Run each
// round it made is back on the idle list exactly once, so none is lost to a
// retire and none is handed out twice.
func TestSoloRoundPoolDoubles(t *testing.T) {
	c := NewSolo(Config{WorldSize: 4})
	g := c.WorldGroup()
	for _, step := range []struct{ k, made int }{{1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {3, 8}} {
		if err := c.Run(func(w *Worker) error {
			hs := make([]Handle, step.k)
			seen := map[*round]bool{}
			for i := range hs {
				hs[i] = g.IAllReduceInto(w, tensor.NewPhantom(1, 3), tensor.NewPhantom(1, 3))
				if seen[hs[i].r] {
					return fmt.Errorf("%d in flight: round %d is one already in flight", step.k, i)
				}
				seen[hs[i].r] = true
			}
			for _, h := range hs {
				h.Wait()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if g.made != step.made {
			t.Fatalf("%d rounds in flight: the group owns %d, want %d", step.k, g.made, step.made)
		}
		idle := map[*round]bool{}
		for r := g.idle; r != nil; r = r.next {
			if idle[r] {
				t.Fatalf("after %d in flight: a round is on the idle list twice", step.k)
			}
			idle[r] = true
		}
		if len(idle) != g.made {
			t.Fatalf("after %d in flight: %d idle of %d made", step.k, len(idle), g.made)
		}
	}
}
