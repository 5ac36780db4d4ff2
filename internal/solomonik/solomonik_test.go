package solomonik

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestMulABMatchesSerial: the front layer supplies the operands, the deeper
// layers receive buffers of the block shape, and every layer ends up with
// the serial product's block — at d = 1 (Cannon), d = 2, and d = q (3-D).
func TestMulABMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ q, d int }{
		{2, 1}, {2, 2}, {3, 3}, {4, 2}, {4, 4},
	} {
		t.Run(fmt.Sprintf("q%dd%d", tc.q, tc.d), func(t *testing.T) {
			s := mesh.Shape{Q: tc.q, D: tc.d}
			rng := tensor.NewRNG(uint64(tc.q*10 + tc.d))
			ga := tensor.RandomMatrix(4*tc.q, 3*tc.q, rng)
			gb := tensor.RandomMatrix(3*tc.q, 2*tc.q, rng)
			want := tensor.MatMul(ga, gb)
			testutil.Run(t, s.Size(), func(w *dist.Worker) error {
				p := mesh.NewProc(w, s)
				la, lb := tensor.New(4, 3), tensor.New(3, 2)
				if p.K == 0 {
					la = ga.SubMatrix(p.I*4, p.J*3, 4, 3)
					lb = gb.SubMatrix(p.I*3, p.J*2, 3, 2)
				}
				lc := MulAB(p, la, lb)
				wantBlock := want.SubMatrix(p.I*4, p.J*2, 4, 2)
				if !lc.AllClose(wantBlock, 1e-9) {
					t.Errorf("proc (%d,%d,%d): diff %g", p.I, p.J, p.K, lc.MaxAbsDiff(wantBlock))
				}
				return nil
			})
		})
	}
}

// shiftMessages counts the block transfers of the shifts: the two-member
// broadcasts, without the 2·q²·(d−1) messages of the depth broadcasts that
// replicate A and B across the q² depth fibres.
func shiftMessages(st dist.Stats, s mesh.Shape) int64 {
	return st.PerOp["broadcast"].Messages - int64(2*s.Q*s.Q*(s.D-1))
}

func TestDepthOneReducesToCannonSchedule(t *testing.T) {
	// With d = 1 the 2.5-D algorithm is Cannon's algorithm plus a size-1
	// broadcast/all-reduce (both free); the shift message count must match
	// Cannon's exactly.
	q := 3
	s := mesh.Shape{Q: q, D: 1}
	c := dist.New(dist.Config{WorldSize: s.Size()})
	if err := c.Run(func(w *dist.Worker) error {
		p := mesh.NewProc(w, s)
		MulAB(p, tensor.NewPhantom(2, 2), tensor.NewPhantom(2, 2))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := shiftMessages(c.Stats(), s)
	if want := int64(2*q*q*q - 2*q); got != want {
		t.Fatalf("d=1 sends %d messages, Cannon sends %d", got, want)
	}
}

func TestDepthReducesShiftTraffic(t *testing.T) {
	// Increasing d replaces shift rounds with (cheaper, rarer) depth
	// collectives: shift messages must strictly decrease.
	counts := map[int]int64{}
	for _, d := range []int{1, 2, 4} {
		s := mesh.Shape{Q: 4, D: d}
		c := dist.New(dist.Config{WorldSize: s.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			MulAB(mesh.NewProc(w, s), tensor.NewPhantom(2, 2), tensor.NewPhantom(2, 2))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		counts[d] = shiftMessages(c.Stats(), s)
	}
	if !(counts[4] < counts[2] && counts[2] < counts[1]) {
		t.Fatalf("shift messages should fall with depth: %v", counts)
	}
}

func TestDepthMustDivideQ(t *testing.T) {
	s := mesh.Shape{Q: 4, D: 3}
	if err := s.Validate(); err != nil {
		t.Skip("shape invalid at mesh level already")
	}
	c := dist.New(dist.Config{WorldSize: s.Size()})
	err := c.Run(func(w *dist.Worker) error {
		p := mesh.NewProc(w, s)
		defer func() { recover() }()
		MulAB(p, tensor.New(2, 2), tensor.New(2, 2))
		t.Errorf("rank %d: expected panic for d∤q", w.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
