package cannon

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/claims"
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
		got := c.Stats().PerOp["send"].Messages
		want := int64(math.Round(claims.CannonTransfers(float64(q * q))))
		if got != want || want != int64(2*q*q*q-2*q) {
			t.Fatalf("q=%d: measured %d transfers, formula says %d", q, got, want)
		}
	}
}

func TestShiftRoundTrip(t *testing.T) {
	// Shifting left q times returns every block to its owner.
	s := mesh.Shape{Q: 3, D: 1}
	testutil.Run(t, s.Size(), func(w *dist.Worker) error {
		p := mesh.NewProc(w, s)
		m := tensor.New(1, 1)
		m.Set(0, 0, float64(w.Rank()))
		cur := m
		for i := 0; i < 3; i++ {
			cur = ShiftLeft(p, cur, 1)
		}
		if cur.At(0, 0) != float64(w.Rank()) {
			t.Errorf("rank %d: q shifts did not round trip (got %g)", w.Rank(), cur.At(0, 0))
		}
		up := ShiftUp(p, m, 3)
		if up.At(0, 0) != float64(w.Rank()) {
			t.Errorf("rank %d: shift by q must be identity", w.Rank())
		}
		return nil
	})
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
