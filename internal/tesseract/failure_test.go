package tesseract

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
)

// Failure-injection tests: when one worker of a mesh dies mid-schedule, the
// cluster must unwind cleanly — no deadlock, an error naming the failed
// worker — even while its peers are blocked inside SUMMA collectives.

func TestWorkerErrorDuringForwardUnblocksPeers(t *testing.T) {
	sentinel := errors.New("injected fault")
	c := dist.New(dist.Config{WorldSize: 8})
	err := c.Run(func(w *dist.Worker) error {
		p := NewProcAt(w, mesh.Shape{Q: 2, D: 2})
		if w.Rank() == 5 {
			return sentinel // dies before joining any collective
		}
		b := family(p).NewBlock(8, 2, 2, tensor.NewRNG(1))
		x := tensor.RandomMatrix(2, 4, tensor.NewRNG(2))
		b.Forward(x) // peers block in row/col broadcasts until aborted
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("expected injected fault to surface, got %v", err)
	}
	if !strings.Contains(err.Error(), "worker 5") {
		t.Fatalf("error should name the failing worker: %v", err)
	}
}

func TestPanicMidCollectiveUnblocksPeers(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 4})
	err := c.Run(func(w *dist.Worker) error {
		p := NewProcAt(w, mesh.Shape{Q: 2, D: 1})
		a := tensor.RandomMatrix(2, 2, tensor.NewRNG(uint64(w.Rank())))
		b := tensor.RandomMatrix(2, 2, tensor.NewRNG(uint64(w.Rank())+10))
		if w.Rank() == 3 {
			// Participate in the first broadcast round (MulAB's schedule
			// starts with a row broadcast-into; rank 3 sits at j=1, so it
			// receives), then die: peers are left waiting inside later
			// rendezvous.
			p.Row.BroadcastInto(p.W, p.RowRank(0), nil, tensor.New(a.Rows, a.Cols))
			panic("mid-schedule crash")
		}
		p.MatMulAB(a, b)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "mid-schedule crash") {
		t.Fatalf("expected mid-schedule panic to surface, got %v", err)
	}
}

func TestClusterReusableIsNotPromisedAfterAbort(t *testing.T) {
	// After an abort the cluster stays aborted: further runs fail fast
	// rather than hanging. (A fresh cluster is the documented recovery.)
	c := dist.New(dist.Config{WorldSize: 2})
	first := c.Run(func(w *dist.Worker) error {
		if w.Rank() == 0 {
			return errors.New("boom")
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	if first == nil {
		t.Fatal("first run should fail")
	}
	second := c.Run(func(w *dist.Worker) error {
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	if second == nil {
		t.Fatal("aborted cluster must not silently succeed")
	}
}
