package summa

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
)

// TestWarmKernelsAllocateNothing: once the transient store has grown to the
// largest call's panels and partials, a Run of all three kernels on every
// rank of the layer allocates nothing, and the store stays that size.
func TestWarmKernelsAllocateNothing(t *testing.T) {
	for _, q := range []int{2, 3, 4} {
		s := mesh.Shape{Q: q, D: 1}
		c := dist.New(dist.Config{WorldSize: s.Size()})
		procs := make([]*mesh.Proc, s.Size())
		ops := make([][4]*tensor.Matrix, s.Size())
		held := make([]int64, s.Size())
		if err := c.Run(func(w *dist.Worker) error {
			p := mesh.NewProc(w, s)
			procs[w.Rank()] = p
			ops[w.Rank()] = [4]*tensor.Matrix{blockFor(p, 6, 5, 1), blockFor(p, 5, 3, 2), blockFor(p, 6, 3, 3), tensor.New(5, 3)}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		fn := func(w *dist.Worker) error {
			p, o := procs[w.Rank()], ops[w.Rank()]
			ws := w.Workspace()
			ws.Put(MulAB(p, o[0], o[1]))
			ws.Put(MulABT(p, o[2], o[1]))
			MulATB(p, o[0], o[2], o[3])
			held[w.Rank()] = ws.Stats().HeldBytes
			return nil
		}
		for i := 0; i < 2; i++ {
			if err := c.Run(fn); err != nil {
				t.Fatal(err)
			}
		}
		warm := append([]int64(nil), held...)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := c.Run(fn); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("q=%d: a warm Run of the three kernels allocates %v times, want 0", q, allocs)
		}
		for r := range held {
			if held[r] != warm[r] {
				t.Errorf("q=%d rank %d: warm calls moved HeldBytes %d → %d", q, r, warm[r], held[r])
			}
		}
		c.Close()
	}
}

// TestLentViewPutBeforeWaitPanics: a receive panel viewing the transient
// store, lent to an in-flight broadcast as its destination, panics on Put
// until the handle is waited, and the next reservation waits for the Put.
func TestLentViewPutBeforeWaitPanics(t *testing.T) {
	s := mesh.Shape{Q: 2, D: 1}
	runMesh(t, s, func(p *mesh.Proc) error {
		ws := p.W.Workspace()
		ws.Reserve(6)
		a := blockFor(p, 2, 3, 1)
		if p.J == 0 {
			h := p.Row.IBroadcastInto(p.W, p.RowRank(0), a, a)
			h.Wait()
			return nil
		}
		panel := ws.GetTransient(2, 3, false)
		h := p.Row.IBroadcastInto(p.W, p.RowRank(0), nil, panel)
		if err := panics(func() { ws.Put(panel) }); err != nil {
			return fmt.Errorf("rank (%d,%d): Put of a lent view before Wait: %v", p.I, p.J, err)
		}
		if err := panics(func() { ws.Reserve(6) }); err != nil {
			return fmt.Errorf("rank (%d,%d): Reserve with a lent view out: %v", p.I, p.J, err)
		}
		h.Wait()
		ws.Put(panel)
		ws.Reserve(6)
		return nil
	})
}

// panics reports an error unless fn panics.
func panics(fn func()) (err error) {
	defer func() {
		if recover() == nil {
			err = fmt.Errorf("did not panic")
		}
	}()
	fn()
	return nil
}
