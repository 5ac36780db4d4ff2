package dist

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// errRankf wraps a formatted error with the failing rank so it surfaces
// through the cluster's abort machinery.
func errRankf(w *Worker, format string, args ...any) error {
	return fmt.Errorf("rank %d: %s", w.Rank(), fmt.Sprintf(format, args...))
}

// fillRank gives each rank a distinct deterministic matrix.
func fillRank(rank, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64(rank*1000+i) * 0.5
	}
	return m
}

// TestBroadcastIntoMatchesBroadcast: every member's dst holds exactly what
// the root broadcast, whether the root lends its payload as its own dst (the
// in-place idiom) or receives a copy like everyone else.
func TestBroadcastIntoMatchesBroadcast(t *testing.T) {
	const n, root = 4, 2
	inPlace := make([]*tensor.Matrix, n)
	copied := make([]*tensor.Matrix, n)
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		dst := tensor.New(3, 5)
		if w.Rank() == root {
			dst = fillRank(root, 3, 5)
			g.BroadcastInto(w, root, dst, dst)
		} else {
			g.BroadcastInto(w, root, nil, dst)
		}
		inPlace[w.Rank()] = dst

		var payload *tensor.Matrix
		if w.Rank() == root {
			payload = fillRank(root, 3, 5)
		}
		copied[w.Rank()] = g.BroadcastInto(w, root, payload, tensor.New(3, 5))
		return nil
	})
	want := fillRank(root, 3, 5)
	for r := 0; r < n; r++ {
		if !inPlace[r].Equal(want) {
			t.Fatalf("rank %d: in-place BroadcastInto delivered something other than the payload", r)
		}
		if !copied[r].Equal(want) {
			t.Fatalf("rank %d: BroadcastInto into a separate dst delivered something other than the payload", r)
		}
	}
}

func TestBroadcastIntoRootMayMutateImmediately(t *testing.T) {
	// The documented contract: no member aliases the root's payload after
	// return, so the root may overwrite it while peers still hold their
	// copies.
	const n, root = 4, 0
	got := make([]*tensor.Matrix, n)
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		if w.Rank() == root {
			payload := fillRank(7, 2, 2)
			g.BroadcastInto(w, root, payload, payload)
			payload.Fill(-1) // must not be visible to any peer
			got[w.Rank()] = fillRank(7, 2, 2)
		} else {
			dst := tensor.New(2, 2)
			g.BroadcastInto(w, root, nil, dst)
			got[w.Rank()] = dst
		}
		return nil
	})
	want := fillRank(7, 2, 2)
	for r := 1; r < n; r++ {
		if !got[r].Equal(want) {
			t.Fatalf("rank %d saw the root's post-broadcast mutation", r)
		}
	}
}

// TestReduceIntoMatchesReduceBitwise: reducing into a separate accumulator
// and reducing in place over the root's own contribution are the same
// reduction, bit for bit and equal to the scalar tree, down to the
// single-member group; only the root gets a result.
func TestReduceIntoMatchesReduceBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		const root = 0
		data := make([][]float64, n)
		for r := range data {
			data[r] = fillRank(r, 4, 4).Data
		}
		want := make([]float64, 16)
		treeSumScalar(want, data)
		var fresh, aliased *tensor.Matrix
		runWorld(t, n, func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			var dst *tensor.Matrix
			if w.Rank() == root {
				dst = tensor.New(4, 4)
			}
			r1 := g.ReduceInto(w, root, fillRank(w.Rank(), 4, 4), dst)
			m := fillRank(w.Rank(), 4, 4)
			if w.Rank() == root {
				dst = m
			}
			r2 := g.ReduceInto(w, root, m, dst)
			if w.Rank() == root {
				fresh, aliased = r1, r2
			} else if r1 != nil || r2 != nil {
				t.Errorf("n=%d rank %d: non-root ReduceInto must return nil", n, w.Rank())
			}
			return nil
		})
		if !sameBits(fresh.Data, want) {
			t.Fatalf("n=%d: ReduceInto differs bitwise from the scalar tree", n)
		}
		if !sameBits(aliased.Data, want) {
			t.Fatalf("n=%d: in-place ReduceInto differs bitwise from ReduceInto into a separate dst", n)
		}
	}
}

// TestAllReduceIntoMatchesAllReduceBitwise: the in-place all-reduce (dst
// aliases m) and the all-reduce into a separate dst hand every member the
// same bits, down to the single-member group, and leave a separate input
// untouched.
func TestAllReduceIntoMatchesAllReduceBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		want := make([]*tensor.Matrix, n)
		got := make([]*tensor.Matrix, n)
		runWorld(t, n, func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			in := fillRank(w.Rank(), 3, 3)
			want[w.Rank()] = g.AllReduceInto(w, in, tensor.New(3, 3))
			if !in.Equal(fillRank(w.Rank(), 3, 3)) {
				t.Errorf("AllReduceInto into a separate dst mutated its input")
			}
			// In-place variant: dst aliases m.
			m := fillRank(w.Rank(), 3, 3)
			out := g.AllReduceInto(w, m, m)
			if out != m {
				t.Errorf("AllReduceInto must return dst")
			}
			got[w.Rank()] = out
			return nil
		})
		for r := 0; r < n; r++ {
			if !sameBits(want[r].Data, got[r].Data) || !sameBits(want[r].Data, want[0].Data) {
				t.Fatalf("n=%d rank %d: in-place AllReduceInto differs bitwise from AllReduceInto into a separate dst", n, r)
			}
		}
	}
}

func TestReduceIntoConsumesPartialBeforeReturn(t *testing.T) {
	// SUMMA's reuse contract: a member may overwrite its partial the moment
	// ReduceInto returns. Run q rounds reusing one buffer per member and
	// check the root sums against reductions of fresh buffers.
	const n, rounds = 4, 3
	sums := make([]*tensor.Matrix, rounds)
	wants := make([]*tensor.Matrix, rounds)
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		partial := tensor.New(2, 2)
		var dst *tensor.Matrix
		if w.Rank() == 0 {
			dst = tensor.New(2, 2)
		}
		for round := 0; round < rounds; round++ {
			src := fillRank(w.Rank()+round*10, 2, 2)
			copy(partial.Data, src.Data)
			r := g.ReduceInto(w, 0, partial, dst)
			if w.Rank() == 0 {
				sums[round] = r.Clone()
			}
		}
		for round := 0; round < rounds; round++ {
			var fresh *tensor.Matrix
			if w.Rank() == 0 {
				fresh = tensor.New(2, 2)
			}
			g.ReduceInto(w, 0, fillRank(w.Rank()+round*10, 2, 2), fresh)
			if w.Rank() == 0 {
				wants[round] = fresh
			}
		}
		return nil
	})
	for round := 0; round < rounds; round++ {
		if !wants[round].Equal(sums[round]) {
			t.Fatalf("round %d: reused-partial ReduceInto corrupted the sum", round)
		}
	}
}

func TestIntoCollectivesSteadyStateAllocationFree(t *testing.T) {
	// Groups larger than two have interior tree nodes whose accumulators
	// used to be fresh allocations. They now come from the worker's pool,
	// so after a warm-up round the workspace must stop allocating — on an
	// 8-member group, not just the benchmarked pairs.
	const n, rounds = 8, 5
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := fillRank(w.Rank(), 4, 4)
		dst := tensor.New(4, 4)
		var warm tensor.WorkspaceStats
		for round := 0; round < rounds; round++ {
			g.AllReduceInto(w, m, dst)
			var rdst *tensor.Matrix
			if w.Rank() == 0 {
				rdst = dst
			}
			g.ReduceInto(w, 0, m, rdst)
			s := w.Workspace().Stats()
			if round == 0 {
				warm = s
				continue
			}
			if s.Allocs != warm.Allocs {
				return errRankf(w, "round %d allocated: %d pool misses vs %d after warm-up", round, s.Allocs, warm.Allocs)
			}
			if s.Live != 0 {
				return errRankf(w, "round %d leaked %d collective scratch buffers", round, s.Live)
			}
		}
		return nil
	})
}

func TestIntoCollectivesPropagatePhantoms(t *testing.T) {
	runWorld(t, 4, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		ph := tensor.NewPhantom(4, 4)
		dst := tensor.NewPhantom(4, 4)
		if out := g.AllReduceInto(w, ph, dst); !out.Phantom() {
			t.Error("phantom all-reduce-into must stay phantom")
		}
		if w.Rank() == 1 {
			g.BroadcastInto(w, 1, ph, ph)
		} else {
			if out := g.BroadcastInto(w, 1, nil, tensor.NewPhantom(4, 4)); !out.Phantom() {
				t.Error("phantom broadcast-into must stay phantom")
			}
		}
		return nil
	})
}

// TestIntoCollectivesChargeLikeClassic: a broadcast, a reduce and an
// all-reduce advance the simulated clocks by exactly the classic α–β
// charges the exported pricing helpers quote — tree, tree, ring — whether
// or not a destination aliases the payload.
func TestIntoCollectivesChargeLikeClassic(t *testing.T) {
	const n = 4
	timeOf := func(fn func(w *Worker, g *Group)) float64 {
		c := New(Config{WorldSize: n})
		if err := c.Run(func(w *Worker) error {
			fn(w, c.WorldGroup())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	separate := timeOf(func(w *Worker, g *Group) {
		var payload, rdst *tensor.Matrix
		if w.Rank() == 0 {
			payload, rdst = tensor.New(8, 8), tensor.New(8, 8)
		}
		g.BroadcastInto(w, 0, payload, tensor.New(8, 8))
		g.ReduceInto(w, 0, tensor.New(8, 8), rdst)
		g.AllReduceInto(w, tensor.New(8, 8), tensor.New(8, 8))
	})
	aliased := timeOf(func(w *Worker, g *Group) {
		m := tensor.New(8, 8)
		var payload, rdst *tensor.Matrix
		if w.Rank() == 0 {
			payload, rdst = m, m
		}
		g.BroadcastInto(w, 0, payload, m)
		g.ReduceInto(w, 0, m, rdst)
		g.AllReduceInto(w, m, m)
	})
	cost := MeluxinaModel()
	const bytes = 8 * 8 * 8
	classic := cost.broadcastTime(n, bytes, cost.BetaIntra) // the broadcast
	classic += cost.broadcastTime(n, bytes, cost.BetaIntra) // the reduce: the same tree in reverse
	classic += cost.allReduceTime(n, bytes, cost.BetaIntra)
	if separate != classic || aliased != classic {
		t.Fatalf("simulated time drifted: classic %g vs separate dsts %g, aliased %g", classic, separate, aliased)
	}
}

// TestAllGatherInto covers both orientations, phantom propagation, bad
// destination shapes, and the clock and traffic accounting.
func TestAllGatherInto(t *testing.T) {
	const n = 4
	rows := make([]*tensor.Matrix, n)
	cols := make([]*tensor.Matrix, n)
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := fillRank(w.Rank(), 2, 3)
		v := g.AllGatherInto(w, m, tensor.New(n*2, 3))
		h := g.AllGatherInto(w, m, tensor.New(2, n*3))
		rows[w.Rank()], cols[w.Rank()] = v, h
		return nil
	})
	for r := 0; r < n; r++ {
		for member := 0; member < n; member++ {
			want := fillRank(member, 2, 3)
			if !rows[r].SubMatrix(member*2, 0, 2, 3).Equal(want) {
				t.Fatalf("rank %d: vertical slot %d corrupted", r, member)
			}
			if !cols[r].SubMatrix(0, member*3, 2, 3).Equal(want) {
				t.Fatalf("rank %d: horizontal slot %d corrupted", r, member)
			}
		}
	}

	// Phantom blocks gather into a phantom destination without arithmetic.
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		out := g.AllGatherInto(w, tensor.NewPhantom(2, 3), tensor.NewPhantom(n*2, 3))
		if !out.Phantom() {
			return errRankf(w, "phantom allgather-into lost phantomness")
		}
		return nil
	})

	// Mismatched destination shapes must fail loudly.
	c := New(Config{WorldSize: 1})
	err := c.Run(func(w *Worker) error {
		defer func() {
			if recover() == nil {
				t.Error("bad dst shape should panic")
			}
		}()
		g := w.Cluster().WorldGroup()
		g.AllGatherInto(w, tensor.New(2, 3), tensor.New(5, 5))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Clock and traffic: a ring of n−1 steps each forwarding one block,
	// booked as n(n−1) block transfers.
	c = New(Config{WorldSize: n})
	if err := c.Run(func(w *Worker) error {
		c.WorldGroup().AllGatherInto(w, fillRank(w.Rank(), 2, 3), tensor.New(n*2, 3))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const blockBytes = 2 * 3 * 8
	m := MeluxinaModel()
	if want := m.allGatherTime(n, blockBytes, m.BetaIntra); c.MaxClock() != want {
		t.Fatalf("AllGatherInto clock %g, want %g", c.MaxClock(), want)
	}
	want := OpStats{Calls: 1, Messages: n * (n - 1), Bytes: (n - 1) * n * blockBytes}
	if st := c.Stats(); st.PerOp["allgather"] != want || st.Messages != want.Messages || st.Bytes != want.Bytes {
		t.Fatalf("AllGatherInto stats %+v, want %+v", st, want)
	}
}
