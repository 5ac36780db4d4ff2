package summa

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The pipelined kernels' central property: on every rank, across repeated
// calls (so the double-buffered panels and partials are genuinely reused),
// the nonblocking double-buffered schedules produce bit-for-bit the results
// of the blocking reference schedules in blocking.go. [1,1,1] covers the
// degenerate self-broadcast, [2,2,1]/[2,2,2] the paper's small meshes, and
// [4,4,1] reduce groups with interior tree positions.

var pipelineShapes = []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}, {4, 1}}

func runPair(t *testing.T, sh struct{ q, d int }, steps int,
	pipelined, blocking func(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix,
	operands func(p *mesh.Proc, step int) (*tensor.Matrix, *tensor.Matrix)) {
	t.Helper()
	s := mesh.Shape{Q: sh.q, D: sh.d}
	world := s.Size()
	got := make([][]*tensor.Matrix, world)
	want := make([][]*tensor.Matrix, world)
	testutil.Run(t, world, func(w *dist.Worker) error {
		p := mesh.NewProc(w, s)
		ws := w.Workspace()
		for step := 0; step < steps; step++ {
			a, b := operands(p, step)
			pr := pipelined(p, a, b)
			var prc *tensor.Matrix
			if pr != nil {
				prc = pr.Clone()
				ws.Put(pr)
			}
			br := blocking(p, a, b)
			var brc *tensor.Matrix
			if br != nil {
				brc = br.Clone()
				ws.Put(br)
			}
			got[w.Rank()] = append(got[w.Rank()], prc)
			want[w.Rank()] = append(want[w.Rank()], brc)
		}
		return nil
	})
	for r := 0; r < world; r++ {
		for step := 0; step < steps; step++ {
			g, wnt := got[r][step], want[r][step]
			if (g == nil) != (wnt == nil) {
				t.Fatalf("[%d,%d,%d] rank %d step %d: nil mismatch", sh.q, sh.q, sh.d, r, step)
			}
			if g != nil && !g.Equal(wnt) {
				t.Fatalf("[%d,%d,%d] rank %d step %d: pipelined result differs bitwise from blocking (max diff %g)",
					sh.q, sh.q, sh.d, r, step, g.MaxAbsDiff(wnt))
			}
		}
	}
}

func blockFor(p *mesh.Proc, rows, cols int, seed uint64) *tensor.Matrix {
	rng := tensor.NewRNG(seed*1000003 + uint64(p.W.Rank())*97 + 1)
	return tensor.RandomMatrix(rows, cols, rng)
}

func TestPipelinedMulABMatchesBlockingBitwise(t *testing.T) {
	for _, sh := range pipelineShapes {
		t.Run(fmt.Sprintf("q%dd%d", sh.q, sh.d), func(t *testing.T) {
			runPair(t, sh, 3, MulAB, mulABBlocking,
				func(p *mesh.Proc, step int) (*tensor.Matrix, *tensor.Matrix) {
					a := blockFor(p, 3, 4, uint64(step))
					b := blockFor(p, 4, 2, uint64(step)+50)
					return a, b
				})
		})
	}
}

func TestPipelinedMulABTMatchesBlockingBitwise(t *testing.T) {
	for _, sh := range pipelineShapes {
		t.Run(fmt.Sprintf("q%dd%d", sh.q, sh.d), func(t *testing.T) {
			runPair(t, sh, 3, MulABT, mulABTBlocking,
				func(p *mesh.Proc, step int) (*tensor.Matrix, *tensor.Matrix) {
					a := blockFor(p, 3, 4, uint64(step)+100) // dY-like block
					b := blockFor(p, 5, 4, uint64(step)+150) // W-like block
					return a, b
				})
		})
	}
}

func TestPipelinedMulATBMatchesBlockingBitwise(t *testing.T) {
	for _, sh := range pipelineShapes {
		t.Run(fmt.Sprintf("q%dd%d", sh.q, sh.d), func(t *testing.T) {
			runPair(t, sh, 3, MulATB, mulATBBlocking,
				func(p *mesh.Proc, step int) (*tensor.Matrix, *tensor.Matrix) {
					a := blockFor(p, 6, 3, uint64(step)+200)
					b := blockFor(p, 6, 2, uint64(step)+250)
					return a, b
				})
		})
	}
}

// TestPipelinedPhantomSameClockAndStats pins the accounting contract: the
// pipelined kernels must charge identical simulated time and identical
// traffic in phantom and real mode (the harness guarantee every table rests
// on), and the overlap statistics must report some comm time with a
// nonnegative hidden share.
func TestPipelinedPhantomSameClockAndStats(t *testing.T) {
	run := func(phantom bool) (clock, hidden, total float64, stats dist.Stats) {
		s := mesh.Shape{Q: 2, D: 2}
		c := dist.New(dist.Config{WorldSize: s.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			p := mesh.NewProc(w, s)
			var a, b *tensor.Matrix
			if phantom {
				a, b = tensor.NewPhantom(4, 6), tensor.NewPhantom(6, 2)
			} else {
				rng := tensor.NewRNG(uint64(w.Rank()) + 3)
				a, b = tensor.RandomMatrix(4, 6, rng), tensor.RandomMatrix(6, 2, rng)
			}
			ws := w.Workspace()
			ws.Put(MulAB(p, a, b))
			ws.Put(MulABT(p, blockFor(p, 4, 2, 7), blockFor(p, 3, 2, 8)))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		h, tot := c.Overlap()
		return c.MaxClock(), h, tot, c.Stats()
	}
	// MulABT uses real blocks in both runs; only MulAB flips phantomness,
	// which must not change a single clock tick or message count.
	realClock, hidden, total, realStats := run(false)
	phClock, _, _, phStats := run(true)
	if realClock <= 0 || realClock != phClock {
		t.Fatalf("phantom clock %g != real clock %g", phClock, realClock)
	}
	if realStats.Messages != phStats.Messages || realStats.Bytes != phStats.Bytes {
		t.Fatalf("phantom stats %+v != real stats %+v", phStats, realStats)
	}
	if total <= 0 {
		t.Fatal("pipelined kernels reported no comm time")
	}
	if hidden < 0 || hidden > total {
		t.Fatalf("hidden comm %g outside [0, %g]", hidden, total)
	}
}

// TestLentMulABMatchesCopyingBitwise: MulABEpi against every rank's packed
// view of its own B block — the owner lends it down the column, nobody copies
// or packs — produces the bits of the copying schedule, epilogue included, on
// the same clocks, overlap account and traffic; across repeated calls with a
// B that changes between them (repacked, as a forward-only scope repacks per
// Run). Column widths off the strip width and depths either side of the
// shallow panel go through the packed GEMM's edges.
func TestLentMulABMatchesCopyingBitwise(t *testing.T) {
	for _, sh := range pipelineShapes {
		for _, dims := range [][3]int{{3, 4, 2}, {5, 33, 11}, {8, 16, 24}} {
			s := mesh.Shape{Q: sh.q, D: sh.d}
			run := func(lend bool) (*dist.Cluster, [][]*tensor.Matrix) {
				out := make([][]*tensor.Matrix, s.Size())
				c := runMesh(t, s, func(p *mesh.Proc) error {
					ws := p.W.Workspace()
					view := new(tensor.Matrix)
					for step := 0; step < 3; step++ {
						a := blockFor(p, dims[0], dims[1], uint64(step))
						b := blockFor(p, dims[1], dims[2], uint64(step)+50)
						epi := Epilogue{Bias: blockFor(p, 1, dims[2], uint64(step)+90), Act: ws.GetUninit(dims[0], dims[2])}
						if lend {
							tensor.PackNN(view, b)
							b = view
						}
						pre := MulABEpi(p, a, b, epi)
						out[p.W.Rank()] = append(out[p.W.Rank()], pre.Clone(), epi.Act.Clone())
						// A lent block is read until the slowest column peer's
						// last GEMM; only then may the next step's repack write it.
						p.Col.Barrier(p.W)
						ws.ReleaseAll()
					}
					return nil
				})
				return c, out
			}
			lc, lent := run(true)
			cc, copied := run(false)
			for r := range lent {
				for i := range lent[r] {
					if !lent[r][i].Equal(copied[r][i]) {
						t.Fatalf("[%d,%d,%d] %v rank %d result %d: lending differs bitwise from copying", sh.q, sh.q, sh.d, dims, r, i)
					}
				}
			}
			lh, lt := lc.Overlap()
			ch, ct := cc.Overlap()
			if lc.MaxClock() != cc.MaxClock() || lh != ch || lt != ct || !reflect.DeepEqual(lc.Stats(), cc.Stats()) {
				t.Fatalf("[%d,%d,%d] %v: lending moved the simulation: clock %g vs %g, overlap %g/%g vs %g/%g, stats %+v vs %+v",
					sh.q, sh.q, sh.d, dims, lc.MaxClock(), cc.MaxClock(), lh, lt, ch, ct, lc.Stats(), cc.Stats())
			}
		}
	}
}
