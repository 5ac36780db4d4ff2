package cannon

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestMulABMatchesSerial(t *testing.T) {
	for _, q := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			s := mesh.Shape{Q: q, D: 1}
			rng := tensor.NewRNG(uint64(q))
			ga := tensor.RandomMatrix(4*q, 3*q, rng)
			gb := tensor.RandomMatrix(3*q, 2*q, rng)
			want := tensor.MatMul(ga, gb)
			results := testutil.NewCollector()
			testutil.Run(t, s.Size(), func(w *dist.Worker) error {
				p := mesh.NewProc(w, s)
				la := ga.SubMatrix(p.I*4, p.J*3, 4, 3)
				lb := gb.SubMatrix(p.I*3, p.J*2, 3, 2)
				lc := MulAB(p, la, lb)
				// Verify the local block directly.
				wantBlock := want.SubMatrix(p.I*4, p.J*2, 4, 2)
				if !lc.AllClose(wantBlock, 1e-9) {
					t.Errorf("proc (%d,%d): block diff %g", p.I, p.J, lc.MaxAbsDiff(wantBlock))
				}
				results.Put(w.Rank(), lc)
				return nil
			})
		})
	}
}

func TestTransferCountMatchesFormula(t *testing.T) {
	// §3.1: Cannon needs 2p^{3/2} − 2p^{1/2} = 2q³ − 2q block transfers: the
	// skew moves 2·q(q−1) blocks and each of the q−1 shift rounds 2q². At
	// p = 64 that is the 1008 behind the paper's "31.5 times the
	// communication of Tesseract" (1008/32).
	for _, q := range []int{2, 3, 4, 8} {
		s := mesh.Shape{Q: q, D: 1}
		c := dist.New(dist.Config{WorldSize: s.Size()})
		err := c.Run(func(w *dist.Worker) error {
			p := mesh.NewProc(w, s)
			la := tensor.NewPhantom(2, 2)
			lb := tensor.NewPhantom(2, 2)
			MulAB(p, la, lb)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every transfer is a two-member broadcast: one message of one block.
		st := c.Stats()
		got := st.PerOp["broadcast"].Messages
		if want := int64(2*q*q*q - 2*q); got != want {
			t.Fatalf("q=%d: measured %d transfers, formula says %d", q, got, want)
		}
		if len(st.PerOp) != 1 || st.Messages != got || st.Bytes != 32*got {
			t.Fatalf("q=%d: traffic %+v, want %d one-block broadcasts of 32 bytes and nothing else", q, st, got)
		}
	}
}

// TestShiftRoundTrip: every shift distance from −1 to q lands the block of
// the rank s places right (below) on the caller — including s = q/2, where
// one pair of ranks carries both directions — q single-step shifts return
// every block to its owner, and Cannon's skew, whose distance differs per
// row (column), lands A(i, i+j) and B(i+j, j) and undoes back to the owner.
func TestShiftRoundTrip(t *testing.T) {
	for _, q := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			sh := mesh.Shape{Q: q, D: 1}
			testutil.Run(t, sh.Size(), func(w *dist.Worker) error {
				p := mesh.NewProc(w, sh)
				m := tensor.New(1, 1)
				m.Set(0, 0, float64(w.Rank()))
				check := func(what string, got *tensor.Matrix, want int) {
					if got.At(0, 0) != float64(want) {
						t.Errorf("rank %d: %s holds rank %g's block, want rank %d's", w.Rank(), what, got.At(0, 0), want)
					}
				}
				for s := -1; s <= q; s++ {
					off := (s + q) % q
					check(fmt.Sprintf("ShiftLeft by %d", s), ShiftLeft(p, m, s), p.RowRank((p.J+off)%q))
					check(fmt.Sprintf("ShiftUp by %d", s), ShiftUp(p, m, s), p.ColRank((p.I+off)%q))
				}
				left, up := m, m
				for i := 0; i < q; i++ {
					left = ShiftLeft(p, left, 1)
					up = ShiftUp(p, up, 1)
				}
				check("q single-step left shifts", left, w.Rank())
				check("q single-step up shifts", up, w.Rank())
				a := ShiftLeft(p, m, p.I)
				b := ShiftUp(p, m, p.J)
				check("the A skew", a, p.RowRank((p.I+p.J)%q))
				check("the B skew", b, p.ColRank((p.I+p.J)%q))
				check("the A skew undone", ShiftLeft(p, a, -p.I), w.Rank())
				check("the B skew undone", ShiftUp(p, b, -p.J), w.Rank())
				if m.At(0, 0) != float64(w.Rank()) {
					t.Errorf("rank %d: shifting wrote the caller's block", w.Rank())
				}
				return nil
			})
		})
	}
}

func TestPhantomMatchesRealClock(t *testing.T) {
	clock := func(phantom bool) float64 {
		s := mesh.Shape{Q: 2, D: 1}
		c := dist.New(dist.Config{WorldSize: s.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			p := mesh.NewProc(w, s)
			var la, lb *tensor.Matrix
			if phantom {
				la, lb = tensor.NewPhantom(3, 3), tensor.NewPhantom(3, 3)
			} else {
				rng := tensor.NewRNG(uint64(w.Rank()) + 1)
				la, lb = tensor.RandomMatrix(3, 3, rng), tensor.RandomMatrix(3, 3, rng)
			}
			MulAB(p, la, lb)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	if clock(true) != clock(false) {
		t.Fatal("phantom and real Cannon must cost the same simulated time")
	}
}
