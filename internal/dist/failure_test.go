package dist

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestFailureCauseStructured checks that an aborting run surfaces a typed
// *Failure naming the rank, carrying the simulated clock at death, and
// wrapping the worker's own error.
func TestFailureCauseStructured(t *testing.T) {
	sentinel := errors.New("link down")
	c := New(Config{WorldSize: 4})
	err := c.Run(func(w *Worker) error {
		if w.Rank() == 2 {
			w.Compute(1e9) // move the clock so the failure time is non-zero
			return sentinel
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("run error is not a *Failure: %v", err)
	}
	if f.Rank != 2 || f.Panicked {
		t.Fatalf("failure = %+v, want rank 2, not panicked", f)
	}
	if f.Clock <= 0 {
		t.Fatalf("failure clock %g must reflect the compute before death", f.Clock)
	}
	if !errors.Is(f, sentinel) {
		t.Fatalf("failure must wrap the worker's error, got %v", f)
	}
	if got := c.Failure(); got != f {
		t.Fatalf("Cluster.Failure() = %+v, want the recorded %+v", got, f)
	}
}

// TestFailureCapturesPanics checks the panic path produces the same
// structured cause, marked as a panic.
func TestFailureCapturesPanics(t *testing.T) {
	c := New(Config{WorldSize: 2})
	err := c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			panic("cosmic ray")
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	var f *Failure
	if !errors.As(err, &f) {
		t.Fatalf("panic did not surface as *Failure: %v", err)
	}
	if f.Rank != 1 || !f.Panicked || !strings.Contains(f.Error(), "cosmic ray") {
		t.Fatalf("failure = %+v", f)
	}
}

// TestPostAbortRunReportsOriginalCause is the satellite regression: a Run on
// a poisoned cluster must still report the original structured cause — who
// died and why — not only a generic poisoned-cluster message.
func TestPostAbortRunReportsOriginalCause(t *testing.T) {
	sentinel := errors.New("node 1 lost")
	c := New(Config{WorldSize: 4})
	if err := c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return sentinel
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	}); err == nil {
		t.Fatal("injected failure did not abort")
	}
	err := c.Run(func(w *Worker) error { return nil })
	if err == nil {
		t.Fatal("poisoned cluster must refuse further runs")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("post-abort error lost the original cause: %v", err)
	}
	var f *Failure
	if !errors.As(err, &f) || f.Rank != 1 {
		t.Fatalf("post-abort error lost the failed-rank identity: %v", err)
	}
	if !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("post-abort message does not name the dead worker: %v", err)
	}
}

// TestSurvivorsAndRecover checks the elastic primitives: survivors exclude
// exactly the failed ranks, and Recover builds a working fresh cluster over
// the surviving budget while the old one stays poisoned.
func TestSurvivorsAndRecover(t *testing.T) {
	c := New(Config{WorldSize: 4, Machine: Machine{GPUsPerNode: 2}})
	_ = c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return errors.New("gone")
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	got := c.Survivors()
	want := []int{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("survivors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("survivors = %v, want %v", got, want)
		}
	}
	c2, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if c2.WorldSize() != 3 {
		t.Fatalf("recovered world size %d, want 3", c2.WorldSize())
	}
	// The fresh cluster must actually run collectives.
	if err := c2.Run(func(w *Worker) error {
		m := tensor.New(1, 1)
		m.Set(0, 0, 1)
		s := c2.WorldGroup().AllReduceInto(w, m, m)
		if s.At(0, 0) != 3 {
			t.Errorf("rank %d: all-reduce = %g, want 3", w.Rank(), s.At(0, 0))
		}
		return nil
	}); err != nil {
		t.Fatalf("recovered cluster run: %v", err)
	}
	// The old cluster stays poisoned.
	if err := c.Run(func(w *Worker) error { return nil }); err == nil {
		t.Fatal("original cluster must stay poisoned after recovery")
	}
	// Recover keeps the machine description.
	if m := c2.Machine(); m != c.Machine() || m.GPUsPerNode != 2 {
		t.Fatalf("recovered cluster's machine %+v, want the original's %+v", m, c.Machine())
	}
}

// TestRecoverHealthyClusterErrors: recovery is only defined after a failure.
func TestRecoverHealthyClusterErrors(t *testing.T) {
	c := New(Config{WorldSize: 2})
	if _, err := c.Recover(); err == nil {
		t.Fatal("recovering a healthy cluster must error")
	}
}

// TestFailuresSortedMultiple has two ranks fail in one run and checks
// that Failure() picks the lower and Survivors() leaves both out.
func TestFailuresSortedMultiple(t *testing.T) {
	c := New(Config{WorldSize: 4})
	_ = c.Run(func(w *Worker) error {
		if w.Rank() == 3 || w.Rank() == 1 {
			return errors.New("dead")
		}
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	})
	if got := c.Failure(); got == nil || got.Rank != 1 {
		t.Fatalf("Failure() = %v, want rank 1's", got)
	}
	if got := c.Survivors(); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("Survivors() = %v, want [0 2]", got)
	}
}
