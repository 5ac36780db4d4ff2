package summa_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/summa"
	"repro/internal/tensor"
	"repro/internal/tesseract"
	"repro/internal/testutil"
)

// runFamily executes fn on a fresh cluster shaped for s, handing every rank
// its mesh and the tesseract family over it: the kernels take their operands
// where the family places them — A blocks through its View (Figure 4a), B
// blocks as its linears cut their weights (Figure 4b).
func runFamily(t *testing.T, s mesh.Shape, fn func(p *tesseract.Proc, f *tesseract.Family) error) *dist.Cluster {
	t.Helper()
	l := parallel.Layout{Family: "tesseract", Q: s.Q, D: s.D, Ranks: s.Size()}
	return testutil.Run(t, s.Size(), func(w *dist.Worker) error {
		return fn(tesseract.NewProc(w, s.Q, s.D), tesseract.NewFamily(w, l))
	})
}

// xavier is the [rows, cols] weight a linear draws from seed.
func xavier(rows, cols int, seed uint64) *tensor.Matrix {
	return tensor.XavierMatrix(rows, cols, tensor.NewRNG(seed))
}

// weightBlock is the calling rank's block of xavier(rows, cols, seed), cut
// where a tesseract linear cuts it.
func weightBlock(p *tesseract.Proc, rows, cols int, seed uint64) *tensor.Matrix {
	return tesseract.NewLinear(p, rows, cols, nn.ActNone, false, tensor.NewRNG(seed)).W.Value
}

// gatherB reassembles a B-distributed block on every rank of its layer:
// the blocks side by side along the grid row, then the row bands down the
// grid column.
func gatherB(p *mesh.Proc, local *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	wide := p.Row.AllGatherInto(p.W, local, ws.GetUninitMatch(local.Rows, p.Row.Size()*local.Cols, local.Phantom()))
	return p.Col.AllGatherInto(p.W, wide, ws.GetUninitMatch(p.Col.Size()*wide.Rows, wide.Cols, wide.Phantom()))
}

func TestMulABMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ q, d, a, b, c int }{
		{1, 1, 4, 4, 4},
		{2, 1, 8, 6, 10},
		{2, 2, 8, 6, 10},
		{3, 1, 9, 6, 12},
		{4, 2, 16, 8, 12},
		{4, 4, 16, 8, 12},
	} {
		t.Run(fmt.Sprintf("q%dd%d", tc.q, tc.d), func(t *testing.T) {
			s := mesh.Shape{Q: tc.q, D: tc.d}
			seed := uint64(tc.q*10 + tc.d)
			ga := tensor.RandomMatrix(tc.a, tc.b, tensor.NewRNG(seed))
			want := tensor.MatMul(ga, xavier(tc.b, tc.c, seed+1))
			results := testutil.NewCollector()
			runFamily(t, s, func(p *tesseract.Proc, f *tesseract.Family) error {
				lc := summa.MulAB(p.Proc, f.Distribute(ga), weightBlock(p, tc.b, tc.c, seed+1))
				results.Put(p.W.Rank(), f.Collect(lc))
				return nil
			})
			for r := 0; r < s.Size(); r++ {
				testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
			}
		})
	}
}

func TestMulABTMatchesSerial(t *testing.T) {
	// A' = C'·Bᵀ with C' A-distributed and B B-distributed.
	for _, tc := range []struct{ q, d, a, b, c int }{
		{2, 1, 8, 6, 10},
		{2, 2, 8, 6, 10},
		{3, 1, 9, 6, 12},
		{4, 2, 16, 8, 12},
	} {
		t.Run(fmt.Sprintf("q%dd%d", tc.q, tc.d), func(t *testing.T) {
			s := mesh.Shape{Q: tc.q, D: tc.d}
			seed := uint64(tc.q*100 + tc.d)
			gc := tensor.RandomMatrix(tc.a, tc.c, tensor.NewRNG(seed)) // like dY
			want := tensor.MatMulNT(gc, xavier(tc.b, tc.c, seed+1))    // like W
			results := testutil.NewCollector()
			runFamily(t, s, func(p *tesseract.Proc, f *tesseract.Family) error {
				la := summa.MulABT(p.Proc, f.Distribute(gc), weightBlock(p, tc.b, tc.c, seed+1))
				results.Put(p.W.Rank(), f.Collect(la))
				return nil
			})
			for r := 0; r < s.Size(); r++ {
				testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
			}
		})
	}
}

func TestMulATBMatchesSerialPerLayer(t *testing.T) {
	// B' = Aᵀ·C'. On a single layer (d=1) the per-layer result is already
	// the full product.
	for _, q := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			s := mesh.Shape{Q: q, D: 1}
			rng := tensor.NewRNG(uint64(q))
			ga := tensor.RandomMatrix(4*q, 3*q, rng)
			gc := tensor.RandomMatrix(4*q, 2*q, rng)
			want := tensor.MatMulTN(ga, gc)
			results := testutil.NewCollector()
			runFamily(t, s, func(p *tesseract.Proc, f *tesseract.Family) error {
				la, lc := f.Distribute(ga), f.Distribute(gc)
				lb := tensor.New(la.Cols, lc.Cols)
				summa.MulATB(p.Proc, la, lc, lb)
				results.Put(p.W.Rank(), gatherB(p.Proc, lb))
				return nil
			})
			for r := 0; r < s.Size(); r++ {
				testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
			}
		})
	}
}

func TestMulATBAcrossDepthSumsToSerial(t *testing.T) {
	// With d > 1 each layer holds disjoint block rows, so the depth
	// all-reduce of per-layer results equals the full Aᵀ·C'.
	s := mesh.Shape{Q: 2, D: 2}
	rng := tensor.NewRNG(99)
	ga := tensor.RandomMatrix(8, 6, rng)
	gc := tensor.RandomMatrix(8, 4, rng)
	want := tensor.MatMulTN(ga, gc)
	results := testutil.NewCollector()
	runFamily(t, s, func(p *tesseract.Proc, f *tesseract.Family) error {
		la, lc := f.Distribute(ga), f.Distribute(gc)
		partial := tensor.New(la.Cols, lc.Cols)
		summa.MulATB(p.Proc, la, lc, partial)
		full := p.Depth.AllReduceInto(p.W, partial, partial)
		results.Put(p.W.Rank(), gatherB(p.Proc, full))
		return nil
	})
	for r := 0; r < s.Size(); r++ {
		testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
	}
}

// TestDistributeCollectRoundTrip: the operands the kernels are fed go back
// together bit for bit on every rank — A through the family's Distribute
// and Collect, B from the blocks the linears cut, gathered along the row and
// down the column — and the two all-gathers behind each cost what they
// always did: the clocks and traffic below were recorded from the
// allocating AllGather path, and hold for shape-only operands too.
func TestDistributeCollectRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		q, d           int
		clockA, clockB float64
		statsA, statsB dist.OpStats
	}{
		{2, 1, 4.000576e-06, 4.000576e-06,
			dist.OpStats{Calls: 4, Messages: 8, Bytes: 576}, dist.OpStats{Calls: 4, Messages: 8, Bytes: 576}},
		{2, 2, 8.046272e-06, 4.000576e-06,
			dist.OpStats{Calls: 6, Messages: 32, Bytes: 2688}, dist.OpStats{Calls: 8, Messages: 16, Bytes: 1152}},
		{3, 2, 1.4130559999999999e-05, 8.06144e-06,
			dist.OpStats{Calls: 9, Messages: 126, Bytes: 14688}, dist.OpStats{Calls: 12, Messages: 72, Bytes: 6912}},
	} {
		s := mesh.Shape{Q: tc.q, D: tc.d}
		ga := tensor.RandomMatrix(2*tc.q*tc.d, 3*tc.q, tensor.NewRNG(5))
		gb := xavier(2*tc.q, 3*tc.q, 6)
		for _, side := range []struct {
			name       string
			global     *tensor.Matrix
			distribute func(*tesseract.Proc, *tesseract.Family) *tensor.Matrix
			collect    func(*tesseract.Proc, *tesseract.Family, *tensor.Matrix) *tensor.Matrix
			clock      float64
			stats      dist.OpStats
		}{
			{"A", ga,
				func(_ *tesseract.Proc, f *tesseract.Family) *tensor.Matrix { return f.Distribute(ga) },
				func(_ *tesseract.Proc, f *tesseract.Family, m *tensor.Matrix) *tensor.Matrix { return f.Collect(m) },
				tc.clockA, tc.statsA},
			{"B", gb,
				func(p *tesseract.Proc, _ *tesseract.Family) *tensor.Matrix {
					return weightBlock(p, gb.Rows, gb.Cols, 6)
				},
				func(p *tesseract.Proc, _ *tesseract.Family, m *tensor.Matrix) *tensor.Matrix {
					return gatherB(p.Proc, m)
				},
				tc.clockB, tc.statsB},
		} {
			for _, phantom := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/q%dd%d/phantom=%v", side.name, tc.q, tc.d, phantom), func(t *testing.T) {
					results := testutil.NewCollector()
					c := runFamily(t, s, func(p *tesseract.Proc, f *tesseract.Family) error {
						local := side.distribute(p, f)
						if phantom {
							local = tensor.NewPhantom(local.Rows, local.Cols)
						}
						results.Put(p.W.Rank(), side.collect(p, f, local))
						return nil
					})
					for r := 0; r < s.Size(); r++ {
						got := results.Get(r)
						if phantom {
							if !got.Phantom() || !got.SameShape(side.global) {
								t.Fatalf("rank %d: phantom collect gave %dx%d (phantom=%v)", r, got.Rows, got.Cols, got.Phantom())
							}
							continue
						}
						testutil.CheckClose(t, fmt.Sprintf("rank %d roundtrip", r), got, side.global, 0)
					}
					if c.MaxClock() != side.clock {
						t.Errorf("clock %v, recorded %v", c.MaxClock(), side.clock)
					}
					st := c.Stats()
					if st.PerOp["allgather"] != side.stats || st.Messages != side.stats.Messages || st.Bytes != side.stats.Bytes {
						t.Errorf("stats %+v, recorded all-gathers only: %+v", st, side.stats)
					}
				})
			}
		}
	}
}

func TestDistributeABlockPlacement(t *testing.T) {
	// Block row h = i + k·q must land on processor (i, j, k) — Figure 4a.
	s := mesh.Shape{Q: 2, D: 2}
	ga := tensor.New(8, 4) // block rows of 2 rows each
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			ga.Set(i, j, float64(i/2)) // value = block row index
		}
	}
	runFamily(t, s, func(p *tesseract.Proc, f *tesseract.Family) error {
		h := p.I + p.K*s.Q
		if got := f.Distribute(ga).At(0, 0); got != float64(h) {
			t.Errorf("proc (%d,%d,%d) holds block row %g, want %d", p.I, p.J, p.K, got, h)
		}
		return nil
	})
}

func TestMulABPhantomSameClock(t *testing.T) {
	// The phantom execution must charge exactly the same simulated time as
	// the real execution.
	s := mesh.Shape{Q: 2, D: 2}
	clock := func(phantom bool) float64 {
		c := dist.New(dist.Config{WorldSize: s.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			p := mesh.NewProc(w, s)
			var la, lb *tensor.Matrix
			if phantom {
				la = tensor.NewPhantom(2, 3)
				lb = tensor.NewPhantom(3, 2)
			} else {
				rng := tensor.NewRNG(uint64(w.Rank()))
				la = tensor.RandomMatrix(2, 3, rng)
				lb = tensor.RandomMatrix(3, 2, rng)
			}
			summa.MulAB(p, la, lb)
			return nil
		}); err != nil {
			return -1
		}
		return c.MaxClock()
	}
	real, ph := clock(false), clock(true)
	if real <= 0 || real != ph {
		t.Fatalf("phantom clock %g != real clock %g", ph, real)
	}
}

func TestMulABShapePanics(t *testing.T) {
	s := mesh.Shape{Q: 2, D: 1}
	c := dist.New(dist.Config{WorldSize: s.Size()})
	err := c.Run(func(w *dist.Worker) error {
		p := mesh.NewProc(w, s)
		defer func() { recover() }()
		summa.MulAB(p, tensor.New(2, 3), tensor.New(4, 2))
		t.Errorf("rank %d: expected shape panic", w.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
