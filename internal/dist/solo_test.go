package dist

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// soloSchedules are SPMD programs over the world group: every rank issues
// the same collectives with the same shapes after the same compute, which is
// the symmetry a solo run stands on. Each covers one collective, blocking
// and — where the nonblocking form exists — with compute charged between
// issue and Wait, from both ends of the group where there is a root, and
// twice in a row so the group channel's lastFinish takes part.
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
			w.ChargeGEMM(64, 64, 64)
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
				cfg := Config{WorldSize: n, GPUsPerNode: gpn}
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
		c := NewSolo(Config{WorldSize: 8, GPUsPerNode: 4})
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
