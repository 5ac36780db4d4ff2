// Package mesh maps the paper's [q, q, d] Tesseract processor arrangement
// (Figure 3) onto cluster ranks and builds the communicator groups every
// algorithm needs: rows and columns inside a depth layer, depth fibres, and
// "slabs" (all processors sharing a grid column across layers).
//
// Rank layout is layer-major: rank = k·q² + i·q + j, on ranks [0, d·q²) of a
// cluster that may be larger. With 4 GPUs per node this keeps each layer's
// rows packed onto as few nodes as possible, matching the paper's
// observation that Tesseract communicates most inside a layer and rarely
// across depth.
package mesh

import (
	"fmt"

	"repro/internal/dist"
)

// Shape is a [q, q, d] Tesseract arrangement. D = 1 is the 2-D (SUMMA /
// Optimus) special case; D = Q is the 3-D special case.
type Shape struct {
	Q, D int
}

// Size returns the number of processors p = d·q².
func (s Shape) Size() int { return s.Q * s.Q * s.D }

// Validate checks the paper's constraint 1 ≤ d ≤ q.
func (s Shape) Validate() error {
	if s.Q < 1 || s.D < 1 {
		return fmt.Errorf("mesh: invalid shape [%d,%d,%d]", s.Q, s.Q, s.D)
	}
	if s.D > s.Q {
		return fmt.Errorf("mesh: depth d=%d exceeds dimension q=%d (paper requires 1 <= d <= q)", s.D, s.Q)
	}
	return nil
}

// Rank returns the cluster rank of grid position (i, j, k).
func (s Shape) Rank(i, j, k int) int { return k*s.Q*s.Q + i*s.Q + j }

// Coords inverts Rank.
func (s Shape) Coords(rank int) (i, j, k int) {
	q2 := s.Q * s.Q
	k = rank / q2
	rank %= q2
	return rank / s.Q, rank % s.Q, k
}

// UniformLinks reports whether placement treats every processor alike: with
// ranks mapped to nodes as the machine places them (m.Node; m defaulted), do
// all the mesh's rows span the same link class (all inside a node, or all
// across nodes — the slowest-link rule dist.Group prices by), and likewise
// all its columns and all its depth fibres, the three communicator families
// the layer schedules run on? Then every rank's clock advances identically and one rank stands
// for all. [3,3,d] at four GPUs per node is the counter-example: its first
// row sits inside node 0, its second straddles nodes 0 and 1.
func (s Shape) UniformLinks(m dist.Machine) bool {
	spans := func(lo, hi int) bool { return m.Node(lo) != m.Node(hi) }
	last := s.Q - 1
	row, col := spans(s.Rank(0, 0, 0), s.Rank(0, last, 0)), spans(s.Rank(0, 0, 0), s.Rank(last, 0, 0))
	depth := spans(s.Rank(0, 0, 0), s.Rank(0, 0, s.D-1))
	for i := 0; i < s.Q; i++ {
		for k := 0; k < s.D; k++ {
			if spans(s.Rank(i, 0, k), s.Rank(i, last, k)) != row || spans(s.Rank(0, i, k), s.Rank(last, i, k)) != col {
				return false
			}
		}
		for j := 0; j < s.Q; j++ {
			if spans(s.Rank(i, j, 0), s.Rank(i, j, s.D-1)) != depth {
				return false
			}
		}
	}
	return true
}

// Proc is one processor's view of the mesh: its coordinates plus the
// communicator groups it participates in. All groups order their members
// canonically (ascending in the varying coordinate) so every member builds
// identical groups.
type Proc struct {
	W       *dist.Worker
	Shape   Shape
	I, J, K int

	// Row spans (I, *, K): the q processors in this row of this layer,
	// ordered by j. SUMMA broadcasts A panels here.
	Row *dist.Group
	// Col spans (*, J, K): the q processors in this column of this layer,
	// ordered by i. SUMMA broadcasts B panels here.
	Col *dist.Group
	// Depth spans (I, J, *): the d processors stacked behind this grid
	// position, ordered by k. Parameter gradients are all-reduced here.
	Depth *dist.Group
	// Slab spans (*, J, *): the d·q processors sharing grid column J,
	// ordered by block row h = i + k·q (i.e. k-major then i). Activations
	// row-split across (i, k) are gathered here.
	Slab *dist.Group
}

// NewProc builds the mesh view for the calling worker. It panics if the
// worker's rank lies outside the mesh or the shape is invalid.
func NewProc(w *dist.Worker, s Shape) *Proc {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if w.Rank() >= s.Size() {
		panic(fmt.Sprintf("mesh: rank %d outside mesh of size %d", w.Rank(), s.Size()))
	}
	i, j, k := s.Coords(w.Rank())
	p := &Proc{W: w, Shape: s, I: i, J: j, K: k}

	// The row, column, depth fibre and slab rank lists share one stack
	// buffer, and the groups not made yet are made together.
	q, d := s.Q, s.D
	var buf [256]int
	ranks := buf[:0]
	for t := 0; t < q; t++ {
		ranks = append(ranks, s.Rank(i, t, k))
	}
	for t := 0; t < q; t++ {
		ranks = append(ranks, s.Rank(t, j, k))
	}
	for t := 0; t < d; t++ {
		ranks = append(ranks, s.Rank(i, j, t))
	}
	for t := 0; t < d; t++ {
		for a := 0; a < q; a++ {
			ranks = append(ranks, s.Rank(a, j, t))
		}
	}
	var g [4]*dist.Group
	w.Cluster().Groups(g[:], ranks[:q], ranks[q:2*q], ranks[2*q:2*q+d], ranks[2*q+d:])
	p.Row, p.Col, p.Depth, p.Slab = g[0], g[1], g[2], g[3]
	return p
}

// RowRank returns the rank of (I, j, K) — used to pick SUMMA broadcast roots.
func (p *Proc) RowRank(j int) int { return p.Shape.Rank(p.I, j, p.K) }

// ColRank returns the rank of (i, J, K).
func (p *Proc) ColRank(i int) int { return p.Shape.Rank(i, p.J, p.K) }

// DepthRank returns the rank of (I, J, k).
func (p *Proc) DepthRank(k int) int { return p.Shape.Rank(p.I, p.J, k) }
