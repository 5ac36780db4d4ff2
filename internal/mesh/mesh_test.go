package mesh

import (
	"sync"
	"testing"

	"repro/internal/dist"
)

func TestRankCoordsRoundTrip(t *testing.T) {
	s := Shape{Q: 3, D: 2}
	seen := make(map[int]bool)
	for k := 0; k < s.D; k++ {
		for i := 0; i < s.Q; i++ {
			for j := 0; j < s.Q; j++ {
				r := s.Rank(i, j, k)
				if seen[r] {
					t.Fatalf("duplicate rank %d", r)
				}
				seen[r] = true
				gi, gj, gk := s.Coords(r)
				if gi != i || gj != j || gk != k {
					t.Fatalf("coords(%d) = (%d,%d,%d), want (%d,%d,%d)", r, gi, gj, gk, i, j, k)
				}
			}
		}
	}
	if len(seen) != s.Size() {
		t.Fatalf("covered %d ranks, want %d", len(seen), s.Size())
	}
}

func TestRankLayoutIsLayerMajor(t *testing.T) {
	s := Shape{Q: 2, D: 2}
	// Layer 0 occupies ranks 0..3, layer 1 ranks 4..7.
	if s.Rank(0, 0, 0) != 0 || s.Rank(1, 1, 0) != 3 || s.Rank(0, 0, 1) != 4 {
		t.Fatal("rank layout is not layer-major")
	}
}

func TestValidate(t *testing.T) {
	if err := (Shape{Q: 4, D: 2}).Validate(); err != nil {
		t.Fatalf("valid shape rejected: %v", err)
	}
	if err := (Shape{Q: 2, D: 3}).Validate(); err == nil {
		t.Fatal("d > q must be rejected (paper: 1 <= d <= q)")
	}
	if err := (Shape{Q: 0, D: 1}).Validate(); err == nil {
		t.Fatal("q = 0 must be rejected")
	}
}

func TestBaseOffset(t *testing.T) {
	s := Shape{Q: 2, D: 1, Base: 10}
	if s.Rank(0, 0, 0) != 10 || s.Rank(1, 1, 0) != 13 {
		t.Fatal("base offset not applied")
	}
	i, j, k := s.Coords(13)
	if i != 1 || j != 1 || k != 0 {
		t.Fatal("coords with base offset wrong")
	}
}

func TestProcGroups(t *testing.T) {
	s := Shape{Q: 2, D: 2}
	c := dist.New(dist.Config{WorldSize: s.Size()})
	var mu sync.Mutex
	procs := make(map[int]*Proc)
	err := c.Run(func(w *dist.Worker) error {
		p := NewProc(w, s)
		mu.Lock()
		procs[w.Rank()] = p
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Processor (1, 0, 1) has rank 4+2 = 6.
	p := procs[6]
	if p.I != 1 || p.J != 0 || p.K != 1 {
		t.Fatalf("coords wrong: (%d,%d,%d)", p.I, p.J, p.K)
	}
	wantRow := []int{6, 7} // (1,0,1), (1,1,1)
	wantCol := []int{4, 6} // (0,0,1), (1,0,1)
	wantDepth := []int{2, 6}
	wantLayer := []int{4, 5, 6, 7}
	wantSlab := []int{0, 2, 4, 6} // (0,0,0),(1,0,0),(0,0,1),(1,0,1) ordered h = i+kq
	checkRanks(t, "row", p.Row.Ranks(), wantRow)
	checkRanks(t, "col", p.Col.Ranks(), wantCol)
	checkRanks(t, "depth", p.Depth.Ranks(), wantDepth)
	checkRanks(t, "layer", p.Layer.Ranks(), wantLayer)
	checkRanks(t, "slab", p.Slab.Ranks(), wantSlab)
	if p.All.Size() != 8 {
		t.Fatalf("all group size %d", p.All.Size())
	}
	if p.BlockRow() != 1+1*2 {
		t.Fatalf("BlockRow = %d", p.BlockRow())
	}
	if p.RowRank(1) != 7 || p.ColRank(0) != 4 || p.DepthRank(0) != 2 {
		t.Fatal("rank helpers wrong")
	}
}

func TestSlabOrderMatchesBlockRows(t *testing.T) {
	s := Shape{Q: 2, D: 2}
	c := dist.New(dist.Config{WorldSize: s.Size()})
	err := c.Run(func(w *dist.Worker) error {
		p := NewProc(w, s)
		ranks := p.Slab.Ranks()
		for idx, r := range ranks {
			i, _, k := s.Coords(r)
			if h := i + k*s.Q; h != idx {
				t.Errorf("slab slot %d holds block row %d", idx, h)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func checkRanks(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: ranks %v, want %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ranks %v, want %v", name, got, want)
		}
	}
}

func TestProcOutsideMeshPanics(t *testing.T) {
	s := Shape{Q: 2, D: 1}
	c := dist.New(dist.Config{WorldSize: 8})
	err := c.Run(func(w *dist.Worker) error {
		if w.Rank() >= s.Size() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d: expected panic", w.Rank())
				}
			}()
			NewProc(w, s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUniformLinks: at four GPUs per node the meshes the paper's tables use
// place every row, column and depth fibre on one link class, and [3,3,d]
// does not — its first row sits inside node 0, its second straddles nodes 0
// and 1. The predicate is what lets the planner price a mesh from one rank.
func TestUniformLinks(t *testing.T) {
	for _, tc := range []struct {
		q, d, gpn int
		want      bool
	}{
		{1, 1, 4, true}, {2, 2, 4, true}, {4, 4, 4, true}, {8, 1, 4, true}, {6, 1, 4, true},
		{2, 1, 4, true}, {4, 1, 4, true}, {4, 2, 4, true}, {8, 8, 4, true}, {5, 1, 4, true},
		{3, 1, 4, false}, {3, 2, 4, false}, {3, 3, 4, false},
		{2, 1, 3, false}, // rows {0,1} and {2,3}: the second straddles nodes 0 and 1
		{3, 3, 9, true},  // a layer per node: rows and columns inside, fibres across
		{3, 3, 3, true},  // a row per node
		{6, 1, 8, false}, // row 0 inside node 0, row 1 across nodes 0 and 1
		{2, 2, 8, true},  // the whole mesh on one node
	} {
		s := Shape{Q: tc.q, D: tc.d}
		if got := s.UniformLinks(tc.gpn); got != tc.want {
			t.Errorf("[%d,%d,%d] at %d GPUs per node: UniformLinks = %v, want %v", tc.q, tc.q, tc.d, tc.gpn, got, tc.want)
		}
		// The predicate must agree with the groups dist actually prices:
		// all instances of a family on the same β.
		if tc.q*tc.q*tc.d > 64 {
			continue
		}
		c := dist.New(dist.Config{WorldSize: s.Size(), GPUsPerNode: tc.gpn})
		type key struct {
			family string
			inter  bool
		}
		seen := map[key]bool{}
		var mu sync.Mutex
		if err := c.Run(func(w *dist.Worker) error {
			p := NewProc(w, s)
			mu.Lock()
			defer mu.Unlock()
			for name, g := range map[string]*dist.Group{"row": p.Row, "col": p.Col, "depth": p.Depth} {
				r := g.Ranks()
				seen[key{name, r[0]/tc.gpn != r[len(r)-1]/tc.gpn}] = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if uniform := len(seen) == 3; uniform != tc.want {
			t.Errorf("[%d,%d,%d] at %d GPUs per node: groups span %v, predicate says uniform=%v", tc.q, tc.q, tc.d, tc.gpn, seen, tc.want)
		}
	}
}
