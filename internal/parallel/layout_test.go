package parallel_test

import (
	"maps"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// gatherPin is what one gather of the contract matrix costs: the cluster's
// simulated clock, its traffic by operation kind, and per rank — identical on
// every rank — the workspace checkouts the gather made and the pool's
// high-water once it returned (the distributed block included).
type gatherPin struct {
	Clock     float64
	Stats     map[string]dist.OpStats
	Gets      int
	HighWater int
}

// TestLayoutContract states what a family's activation layout promises, on
// every family at layouts whose groups have one member and several: Slice
// tiles the matrix exactly once (replicas hold identical windows), Distribute
// cuts the Slice window, Collect and GatherPooled put the matrix back bit for
// bit on every rank, the family's RowShards is its layout's, and the two
// gathers cost the pinned clocks, traffic and pool counters — a one-member
// group is gathered all the same. On a one-rank layout the steady-state
// distribute, slice, pooled gather and step boundary allocate nothing. On a
// deeper mesh every rank's Slice is Figure 4a's block.
func TestLayoutContract(t *testing.T) {
	const rows, cols = 16, 8
	x := tensor.RandomMatrix(rows, cols, tensor.NewRNG(11))
	cases := []struct {
		layout          parallel.Layout
		window          [2]int // the Slice shape every rank holds
		collect, pooled gatherPin
	}{
		{
			layout: parallel.Layout{Family: "tesseract", Q: 1, D: 1}, window: [2]int{16, 8},
			collect: gatherPin{Stats: gathers(2, 0, 0), Gets: 2, HighWater: 3},
			pooled:  gatherPin{Stats: gathers(2, 0, 0), Gets: 2, HighWater: 2},
		},
		{
			layout: parallel.Layout{Family: "tesseract", Q: 2, D: 1}, window: [2]int{8, 4},
			collect: gatherPin{Clock: 4.003072e-06, Stats: gathers(4, 8, 3072), Gets: 2, HighWater: 3},
			pooled:  gatherPin{Clock: 4.003072e-06, Stats: gathers(4, 8, 3072), Gets: 2, HighWater: 2},
		},
		{
			layout: parallel.Layout{Family: "tesseract", Q: 2, D: 2}, window: [2]int{4, 4},
			collect: gatherPin{Clock: 8.123391999999999e-06, Stats: gathers(6, 32, 7168), Gets: 2, HighWater: 3},
			pooled:  gatherPin{Clock: 8.123391999999999e-06, Stats: gathers(6, 32, 7168), Gets: 2, HighWater: 2},
		},
		{
			layout: parallel.Layout{Family: "optimus", Q: 2}, window: [2]int{8, 4},
			collect: gatherPin{Clock: 4.003072e-06, Stats: gathers(4, 8, 3072), Gets: 2, HighWater: 3},
			pooled:  gatherPin{Clock: 4.003072e-06, Stats: gathers(4, 8, 3072), Gets: 2, HighWater: 2},
		},
		// Replication is the distribution: no gather, no buffer.
		{layout: parallel.Layout{Family: "megatron", Ranks: 1}, window: [2]int{16, 8}},
		{layout: parallel.Layout{Family: "megatron", Ranks: 4}, window: [2]int{16, 8}},
		{
			layout: parallel.Layout{Family: "seqpar", Ranks: 1}, window: [2]int{16, 8},
			collect: gatherPin{Stats: gathers(1, 0, 0), Gets: 1, HighWater: 2},
			pooled:  gatherPin{Stats: gathers(1, 0, 0), Gets: 1, HighWater: 2},
		},
		{
			layout: parallel.Layout{Family: "seqpar", Ranks: 4}, window: [2]int{4, 8},
			collect: gatherPin{Clock: 6.003071999999999e-06, Stats: gathers(1, 12, 3072), Gets: 1, HighWater: 2},
			pooled:  gatherPin{Clock: 6.003071999999999e-06, Stats: gathers(1, 12, 3072), Gets: 1, HighWater: 2},
		},
	}
	for _, c := range cases {
		l, err := parallel.Validate(c.layout)
		if err != nil {
			t.Fatal(err)
		}
		for _, pooled := range []bool{false, true} {
			op, want := "Collect", c.collect
			if pooled {
				op, want = "GatherPooled", c.pooled
			}
			cl := dist.New(dist.Config{WorldSize: l.Ranks})
			windows := make([]parallel.Slice, l.Ranks)
			got := make([]gatherPin, l.Ranks)
			err := cl.Run(func(w *dist.Worker) error {
				f, err := parallel.New(w, l)
				if err != nil {
					return err
				}
				if f.RowShards() != l.RowShards() {
					t.Errorf("%s: family RowShards %d, layout %d", l, f.RowShards(), l.RowShards())
				}
				sl := f.Slice(rows, cols)
				windows[w.Rank()] = sl
				local := f.Distribute(x)
				if !local.Equal(x.SubMatrix(sl.Row0, sl.Col0, sl.Rows, sl.Cols)) {
					t.Errorf("%s rank %d: Distribute is not the Slice window %+v", l, w.Rank(), sl)
				}
				ws := w.Workspace()
				before := ws.Stats().Gets
				var full *tensor.Matrix
				if pooled {
					full = f.GatherPooled(local)
				} else {
					full = f.Collect(local)
				}
				st := ws.Stats()
				got[w.Rank()] = gatherPin{Gets: st.Gets - before, HighWater: st.HighWater}
				if !full.Equal(x) {
					t.Errorf("%s rank %d: %s(Distribute(x)) is not x", l, w.Rank(), op)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			checkTiles(t, l, windows, rows, cols, c.window)
			clock, stats := cl.MaxClock(), cl.Stats().PerOp
			for r := range got {
				got[r].Clock, got[r].Stats = clock, stats
				if got[r].Clock != want.Clock || !maps.Equal(got[r].Stats, want.Stats) ||
					got[r].Gets != want.Gets || got[r].HighWater != want.HighWater {
					t.Errorf("%s rank %d: %s costs %#v, pinned %#v", l, r, op, got[r], want)
					break
				}
			}
			if l.Ranks == 1 && pooled {
				checkNoAllocs(t, cl, l, x)
			}
		}
	}
	for _, l := range []parallel.Layout{{Family: "tesseract", Q: 2, D: 2}, {Family: "tesseract", Q: 4, D: 2}} {
		checkFigure4a(t, l, rows, cols)
	}
}

// checkFigure4a holds every rank's Slice of a [rows, cols] activation on a
// tesseract mesh to Figure 4a, worked out from the rank's mesh coordinates:
// processor (i, j, k) holds block row h = i + k·q, block column j.
func checkFigure4a(t *testing.T, l parallel.Layout, rows, cols int) {
	t.Helper()
	l, err := parallel.Validate(l)
	if err != nil {
		t.Fatal(err)
	}
	s := mesh.Shape{Q: l.Q, D: l.D}
	r, c := rows/(l.Q*l.D), cols/l.Q
	err = dist.New(dist.Config{WorldSize: l.Ranks}).Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		i, j, k := s.Coords(w.Rank())
		h := i + k*l.Q
		want := parallel.Slice{Row0: h * r, Col0: j * c, Rows: r, Cols: c}
		if got := f.Slice(rows, cols); got != want {
			t.Errorf("%s rank %d = (%d, %d, %d): Slice %+v, want block (h = %d, j = %d) %+v", l, w.Rank(), i, j, k, got, h, j, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// gathers is the traffic of all-gathers alone.
func gathers(calls, messages, bytes int64) map[string]dist.OpStats {
	return map[string]dist.OpStats{"allgather": {Calls: calls, Messages: messages, Bytes: bytes}}
}

// checkNoAllocs builds the one-rank layout's family again and counts what a
// steady-state distribute, slice, pooled gather and step boundary allocate.
func checkNoAllocs(t *testing.T, cl *dist.Cluster, l parallel.Layout, x *tensor.Matrix) {
	t.Helper()
	err := cl.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(20, func() {
			f.Slice(x.Rows, x.Cols)
			f.GatherPooled(f.Distribute(x))
			f.EndStep()
		})
		if allocs != 0 {
			t.Errorf("%s: a steady-state distribute, slice, pooled gather and step boundary allocate %.0f times", l, allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// checkTiles checks that the ranks' windows, each of the given shape, cover
// every element of the [rows, cols] matrix exactly once per replica: distinct
// windows are disjoint, cover the matrix, and are each held by equally many
// ranks.
func checkTiles(t *testing.T, l parallel.Layout, windows []parallel.Slice, rows, cols int, shape [2]int) {
	t.Helper()
	holders := map[parallel.Slice]int{}
	for r, s := range windows {
		if s.Rows != shape[0] || s.Cols != shape[1] {
			t.Errorf("%s rank %d: window %+v, want %dx%d", l, r, s, shape[0], shape[1])
		}
		holders[s]++
	}
	cover := make([]int, rows*cols)
	for s, n := range holders {
		if n*len(holders) != len(windows) {
			t.Errorf("%s: window %+v held by %d of %d ranks over %d windows", l, s, n, len(windows), len(holders))
		}
		for i := s.Row0; i < s.Row0+s.Rows; i++ {
			for j := s.Col0; j < s.Col0+s.Cols; j++ {
				cover[i*cols+j]++
			}
		}
	}
	for i, n := range cover {
		if n != 1 {
			t.Errorf("%s: element (%d, %d) covered by %d distinct windows", l, i/cols, i%cols, n)
			return
		}
	}
}
