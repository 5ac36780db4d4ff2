package serve

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// fixedExec is a scheduling-free stand-in for a model forward: every batch
// takes the same simulated service time.
func fixedExec(unit int, dur float64) func(ids []int) (int, float64) {
	return func(ids []int) (int, float64) {
		padded := (len(ids) + unit - 1) / unit * unit
		return padded, dur
	}
}

// TestAdmissionExactAtBound: a burst of N arrivals against a depth-Q queue
// admits exactly min(N, Q) and rejects exactly max(0, N-Q) — the admission
// bound is exact, not approximate, because arrivals at an instant are
// processed before any batch close frees slots.
func TestAdmissionExactAtBound(t *testing.T) {
	for _, tc := range []struct{ n, depth, wantRej int }{
		{n: 5, depth: 8, wantRej: 0},
		{n: 8, depth: 8, wantRej: 0},
		{n: 9, depth: 8, wantRej: 1},
		{n: 40, depth: 8, wantRej: 32},
		{n: 1, depth: 1, wantRej: 0},
		{n: 3, depth: 1, wantRej: 2},
	} {
		cfg := Config{MaxBatch: 4, LatencyBudget: 0, QueueDepth: tc.depth}
		arrivals, err := Saturated(tc.n).Times()
		if err != nil {
			t.Fatal(err)
		}
		tr := runTrace(cfg, arrivals, fixedExec(1, 1e-3))
		rep := tr.report()
		if rep.Rejected != tc.wantRej || rep.Admitted != tc.n-tc.wantRej {
			t.Errorf("burst %d depth %d: admitted %d rejected %d, want %d/%d",
				tc.n, tc.depth, rep.Admitted, rep.Rejected, tc.n-tc.wantRej, tc.wantRej)
		}
		if rep.Completed != rep.Admitted {
			t.Errorf("burst %d depth %d: %d admitted but %d completed — trace did not drain",
				tc.n, tc.depth, rep.Admitted, rep.Completed)
		}
		// Rejections must be the tail of the burst: admission is in arrival
		// order.
		for i, q := range rep.Requests {
			if got, want := q.Rejected, i >= tc.depth; got != want {
				t.Errorf("burst %d depth %d: request %d rejected=%v, want %v", tc.n, tc.depth, i, got, want)
			}
		}
	}
}

// TestRejectedSlotsFreeOnClose: once a batch closes, freed slots admit later
// arrivals again — rejection is a property of the instant, not the request.
func TestRejectedSlotsFreeOnClose(t *testing.T) {
	cfg := Config{MaxBatch: 2, LatencyBudget: 0, QueueDepth: 2}
	// Two arrivals fill the queue at t=0; the third at t=0 bounces; the
	// fourth lands after the first batch (dur 1ms) closed and freed slots.
	arrivals := []float64{0, 0, 0, 2e-3}
	tr := runTrace(cfg, arrivals, fixedExec(1, 1e-3))
	rep := tr.report()
	if rep.Rejected != 1 || rep.Requests[2].Rejected != true {
		t.Fatalf("want exactly request 2 rejected, got report %+v", rep.Requests)
	}
	if rep.Requests[3].Rejected {
		t.Fatalf("request 3 arrived after slots freed and must be admitted")
	}
}

// TestWaitBoundUnlessBusy: no request waits in the open batch past the
// latency budget unless the server was continuously busy — in which case its
// batch closed exactly at a previous batch's completion instant.
func TestWaitBoundUnlessBusy(t *testing.T) {
	const budget = 1e-3
	cfg := Config{MaxBatch: 4, LatencyBudget: budget, QueueDepth: 64}
	// A paced trace slow enough that batches close on the budget, dense
	// enough that busy windows form (service 3ms > mean inter-arrival 1ms).
	arrivals, err := ArrivalConfig{N: 200, Rate: 1000, Seed: 7}.Times()
	if err != nil {
		t.Fatal(err)
	}
	tr := runTrace(cfg, arrivals, fixedExec(1, 3e-3))
	rep := tr.report()
	done := map[float64]bool{}
	for _, b := range rep.Batches {
		done[b.Done] = true
	}
	const eps = 1e-12
	exceeded := 0
	for _, q := range rep.Requests {
		if q.Rejected {
			continue
		}
		if q.Wait() <= budget+eps {
			continue
		}
		exceeded++
		if !done[q.BatchClose] {
			t.Errorf("request %d waited %.6g > budget %.6g but its batch closed at %.6g, not at a batch completion — the server was idle",
				q.ID, q.Wait(), budget, q.BatchClose)
		}
	}
	if exceeded == 0 {
		t.Fatalf("trace never exceeded the budget — the busy invariant was not exercised")
	}
}

// TestWaitBoundIdle: with the server never busy (instant service), no
// admitted request ever waits past the budget.
func TestWaitBoundIdle(t *testing.T) {
	const budget = 1e-3
	cfg := Config{MaxBatch: 4, LatencyBudget: budget, QueueDepth: 64}
	arrivals, err := ArrivalConfig{N: 300, Rate: 5000, Seed: 3}.Times()
	if err != nil {
		t.Fatal(err)
	}
	tr := runTrace(cfg, arrivals, fixedExec(1, 0))
	for _, q := range tr.report().Requests {
		if q.Rejected {
			t.Fatalf("request %d rejected under instant service", q.ID)
		}
		if q.Wait() > budget+1e-12 {
			t.Errorf("request %d waited %.6g > budget %.6g with an idle server", q.ID, q.Wait(), budget)
		}
	}
}

// TestBatchSealsEarlyWhenFull: a burst larger than MaxBatch seals full
// batches immediately (close at t=0 for the first), never waiting out the
// budget.
func TestBatchSealsEarlyWhenFull(t *testing.T) {
	cfg := Config{MaxBatch: 4, LatencyBudget: 1.0, QueueDepth: 64}
	arrivals, err := Saturated(10).Times()
	if err != nil {
		t.Fatal(err)
	}
	tr := runTrace(cfg, arrivals, fixedExec(1, 1e-3))
	rep := tr.report()
	if len(rep.Batches) != 3 {
		t.Fatalf("10 requests at MaxBatch 4: want 3 batches, got %d", len(rep.Batches))
	}
	if got := rep.Batches[0]; got.Size != 4 || got.Close != 0 {
		t.Errorf("first batch must seal full at t=0, got size %d close %.6g", got.Size, got.Close)
	}
	// The ragged tail: 2 requests, padded is exec's business (unit 1 here).
	if got := rep.Batches[2]; got.Size != 2 {
		t.Errorf("tail batch size %d, want 2", got.Size)
	}
}

// TestBatcherDeterministicReplay: the event loop is a pure function of
// (config, arrivals, durations) — replaying the identical inputs yields
// identical stamps, batch for batch, bit for bit.
func TestBatcherDeterministicReplay(t *testing.T) {
	cfg := Config{MaxBatch: 3, LatencyBudget: 5e-4, QueueDepth: 6}
	arrivals, err := ArrivalConfig{N: 150, Rate: 2500, Seed: 11}.Times()
	if err != nil {
		t.Fatal(err)
	}
	run := func() *trace {
		// Durations vary per batch but deterministically, like a real model
		// whose service time depends on the padded size.
		return runTrace(cfg, arrivals, func(ids []int) (int, float64) {
			return len(ids), 1e-4 * float64(len(ids))
		})
	}
	a, b := run(), run()
	if len(a.req) != len(b.req) || len(a.stat) != len(b.stat) {
		t.Fatalf("replay changed shape: %d/%d requests, %d/%d batches", len(a.req), len(b.req), len(a.stat), len(b.stat))
	}
	for i := range a.req {
		if a.req[i] != b.req[i] {
			t.Fatalf("request %d differs across replays: %+v vs %+v", i, a.req[i], b.req[i])
		}
	}
	for i := range a.stat {
		if a.stat[i] != b.stat[i] {
			t.Fatalf("batch %d differs across replays: %+v vs %+v", i, a.stat[i], b.stat[i])
		}
	}
}

// TestQueueServesInArrivalOrder: the queue is a ring of QueueDepth slots,
// and however often its head wraps — a depth that is no multiple of
// MaxBatch, a trace that overflows it — the batches, read one after
// another, are every admitted request once, in arrival order.
func TestQueueServesInArrivalOrder(t *testing.T) {
	for _, depth := range []int{1, 5, 7} {
		cfg := Config{MaxBatch: 3, LatencyBudget: 5e-4, QueueDepth: depth}
		arrivals, err := ArrivalConfig{N: 300, Rate: 8000, Seed: 5}.Times()
		if err != nil {
			t.Fatal(err)
		}
		var served []int
		tr := runTrace(cfg, arrivals, func(ids []int) (int, float64) {
			served = append(served, ids...)
			return len(ids), 2e-4 * float64(len(ids))
		})
		var admitted []int
		for _, r := range tr.report().Requests {
			if !r.Rejected {
				admitted = append(admitted, r.ID)
			}
		}
		if len(admitted) == len(arrivals) {
			t.Errorf("depth %d: nothing was rejected, so the queue never filled", depth)
		}
		if !slices.Equal(served, admitted) {
			t.Errorf("depth %d: served %v, admitted %v", depth, served, admitted)
		}
	}
}

// TestArrivalTimes: the Poisson process is seeded, nondecreasing, and
// errors on nonsense.
func TestArrivalTimes(t *testing.T) {
	a, err := ArrivalConfig{N: 50, Rate: 100, Seed: 9}.Times()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArrivalConfig{N: 50, Rate: 100, Seed: 9}.Times()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrivals at %d: %g vs %g", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals must be nondecreasing, %g after %g", a[i], a[i-1])
		}
	}
	c, err := ArrivalConfig{N: 50, Rate: 100, Seed: 10}.Times()
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
	if ts, err := Saturated(4).Times(); err != nil || len(ts) != 4 || ts[3] != 0 {
		t.Fatalf("burst: got %v, %v", ts, err)
	}
	for _, bad := range []ArrivalConfig{
		{N: -1, Rate: 1},
		{N: 1, Rate: 0},
		{N: 1, Rate: -2},
		{N: 1, Rate: math.NaN()},
		{N: 1, Rate: math.Inf(-1)},
	} {
		if _, err := bad.Times(); err == nil {
			t.Errorf("ArrivalConfig %+v must error", bad)
		}
	}
}

// TestConfigDefaults: zero fields fill in, invalid ones error.
func TestConfigDefaults(t *testing.T) {
	c, err := Config{}.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxBatch != 8 || c.QueueDepth != 32 || c.LatencyBudget != 2e-3 {
		t.Fatalf("unexpected defaults %+v", c)
	}
	// The error names the one out-of-range field, never the others (a CLI
	// user sets no KeepLogits).
	for _, bad := range []struct {
		c    Config
		want string
	}{
		{Config{MaxBatch: -1}, "MaxBatch -1"},
		{Config{QueueDepth: -3}, "QueueDepth -3"},
		{Config{LatencyBudget: -1e-3}, "LatencyBudget -0.001"},
		{Config{LatencyBudget: math.Inf(1)}, "LatencyBudget +Inf"},
		{Config{LatencyBudget: math.NaN()}, "LatencyBudget NaN"},
	} {
		_, err := bad.c.WithDefaults()
		if err == nil || !strings.Contains(err.Error(), bad.want) || strings.Contains(err.Error(), "KeepLogits") {
			t.Errorf("Config %+v: error %v, want one naming %q alone", bad.c, err, bad.want)
		}
	}
}
