package dist

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// lendOrCopy runs the same three-broadcast schedule on a 4-rank world —
// compute between issue and Wait, two roots, the second round queued behind
// the first on the group channel — with receivers either borrowing the
// root's payload or passing a destination, and returns the cluster.
func lendOrCopy(t *testing.T, lend bool, faults *FaultPlan, got [][]*tensor.Matrix) *Cluster {
	t.Helper()
	c := New(Config{WorldSize: 4, Cost: faultCost(), Faults: faults})
	err := c.Run(func(w *Worker) error {
		g, r := c.WorldGroup(), w.Rank()
		w.BeginStep(0)
		defer w.EndStep()
		var hs [3]Handle
		var dsts [3]*tensor.Matrix
		for i, root := range []int{2, 0, 2} {
			var payload *tensor.Matrix
			if r == root {
				payload = fillRank(root+i, 6, 5)
			}
			if lend {
				hs[i] = g.IBroadcastLend(w, root, payload)
			} else {
				dsts[i] = tensor.New(6, 5)
				if r == root {
					dsts[i] = payload
				}
				hs[i] = g.IBroadcastInto(w, root, payload, dsts[i])
			}
			w.Compute(float64(1+r) * 1e3)
		}
		for i := range hs {
			if hs[i].Lent() != nil {
				t.Errorf("rank %d: Lent before Wait", r)
			}
			hs[i].Wait()
			if lend {
				dsts[i] = hs[i].Lent()
			} else if hs[i].Lent() != nil {
				t.Errorf("rank %d: a copying broadcast lent a matrix", r)
			}
		}
		got[r] = dsts[:]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBroadcastLendChargesLikeBroadcastInto: a lending round is a broadcast
// round — per-rank clocks, the overlap account, messages and bytes are those
// of IBroadcastInto on the same group, on a healthy cluster and under a
// degraded link with a transient collective failure — and what every member
// holds after Wait is the root's own matrix, not a copy.
func TestBroadcastLendChargesLikeBroadcastInto(t *testing.T) {
	degraded := &FaultPlan{
		Links:       []LinkFault{{Rank: 1, From: 0, To: 0, BetaFactor: 3, ExtraAlpha: 2e-6}},
		Collectives: []CollectiveFault{{Rank: 2, From: 0, To: 0, Retries: 2, Backoff: 1e-5}},
	}
	var healthyClock float64
	for _, plan := range []*FaultPlan{nil, degraded} {
		name := "healthy"
		if plan != nil {
			name = "degraded"
		}
		lent, copied := make([][]*tensor.Matrix, 4), make([][]*tensor.Matrix, 4)
		lc, cc := lendOrCopy(t, true, plan, lent), lendOrCopy(t, false, plan, copied)
		for r := 0; r < 4; r++ {
			if a, b := lc.workers[r].clock, cc.workers[r].clock; a != b {
				t.Errorf("%s: rank %d clock %g lending, %g copying", name, r, a, b)
			}
			for i, root := range []int{2, 0, 2} {
				if !lent[r][i].Equal(copied[r][i]) {
					t.Errorf("%s: rank %d round %d: lent matrix differs from the copied one", name, r, i)
				}
				if lent[r][i] != lent[root][i] {
					t.Errorf("%s: rank %d round %d holds a copy, not the root's matrix", name, r, i)
				}
			}
		}
		if a, b := lc.Stats(), cc.Stats(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: stats %+v lending, %+v copying", name, a, b)
		}
		lh, lt := lc.Overlap()
		ch, ct := cc.Overlap()
		if lh != ch || lt != ct {
			t.Errorf("%s: overlap %g/%g lending, %g/%g copying", name, lh, lt, ch, ct)
		}
		if plan == nil {
			healthyClock = lc.MaxClock()
		} else if lc.MaxClock() <= healthyClock {
			t.Errorf("the fault plan charged nothing: %g degraded, %g healthy", lc.MaxClock(), healthyClock)
		}
	}
}

// TestBroadcastLendMixedReceivers: borrowing and copying members pair into
// one round — the copiers get their copy, the borrowers the root's matrix —
// and a root may lend while a peer's workspace destination is in the round.
// The root's workspace payload is borrowed until its Wait and its own again
// after; a borrower holds nothing of its own workspace.
func TestBroadcastLendMixedReceivers(t *testing.T) {
	const n, root = 5, 3
	var rootPayload *tensor.Matrix
	runWorld(t, n, func(w *Worker) error {
		g, r, ws := w.Cluster().WorldGroup(), w.Rank(), w.Workspace()
		switch {
		case r == root:
			payload := ws.GetUninit(4, 3)
			copy(payload.Data, fillRank(root, 4, 3).Data)
			rootPayload = payload
			h := g.IBroadcastLend(w, root, payload)
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Put of a payload lent to an in-flight broadcast did not panic")
					}
				}()
				ws.Put(payload)
			}()
			h.Wait()
			if h.Lent() != payload {
				t.Error("the root was lent something other than its payload")
			}
		case r%2 == 0:
			h := g.IBroadcastLend(w, root, nil)
			h.Wait()
			if h.Lent() != rootPayload || !h.Lent().Equal(fillRank(root, 4, 3)) {
				t.Errorf("rank %d: borrowed matrix is not the root's payload", r)
			}
		default:
			dst := ws.GetUninit(4, 3)
			h := g.IBroadcastInto(w, root, nil, dst)
			h.Wait()
			if dst == rootPayload || !dst.Equal(fillRank(root, 4, 3)) {
				t.Errorf("rank %d: copying receiver in a lending round got the wrong copy", r)
			}
		}
		// Everyone is done reading before the root recycles the payload.
		g.Barrier(w)
		ws.ReleaseAll() // panics if a borrow is still outstanding
		return nil
	})
}

// TestBroadcastLendSoloAndPhantom: a phantom payload lends like a real one
// on a full cluster, and on a solo cluster the root prices its round exactly
// as IBroadcastInto would while a member that would have to borrow — there
// is no root running to lend, and nothing of its own states the shape — is
// refused by name instead of pricing a nil payload.
func TestBroadcastLendSoloAndPhantom(t *testing.T) {
	runWorld(t, 3, func(w *Worker) error {
		var payload *tensor.Matrix
		if w.Rank() == 1 {
			payload = tensor.NewPhantom(8, 8)
		}
		h := w.Cluster().WorldGroup().IBroadcastLend(w, 1, payload)
		h.Wait()
		if l := h.Lent(); !l.Phantom() || l.Rows != 8 || l.Cols != 8 {
			t.Errorf("rank %d: lent %v, want the phantom 8x8", w.Rank(), l)
		}
		return nil
	})

	solo := func(lend bool, root int) (*Cluster, error) {
		c := NewSolo(Config{WorldSize: 4})
		return c, c.Run(func(w *Worker) error {
			g := c.WorldGroup()
			var payload *tensor.Matrix
			if w.Rank() == root {
				payload = tensor.NewPhantom(16, 4)
			}
			var h Handle
			if lend {
				h = g.IBroadcastLend(w, root, payload)
			} else {
				h = g.IBroadcastInto(w, root, payload, tensor.NewPhantom(16, 4))
			}
			w.Compute(1e6)
			h.Wait()
			return nil
		})
	}
	lc, err := solo(true, 0)
	if err != nil {
		t.Fatalf("solo root lending: %v", err)
	}
	cc, err := solo(false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lc.MaxClock() != cc.MaxClock() || lc.MaxClock() == 0 || !reflect.DeepEqual(lc.Stats(), cc.Stats()) {
		t.Errorf("solo root: clock %g stats %+v lending, clock %g stats %+v copying", lc.MaxClock(), lc.Stats(), cc.MaxClock(), cc.Stats())
	}
	if _, err := solo(true, 2); err == nil || !strings.Contains(err.Error(), "solo cluster") {
		t.Errorf("solo borrower: got %v, want a refusal naming the solo cluster", err)
	}
}
