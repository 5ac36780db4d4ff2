// Package mesh maps the paper's [q, q, d] Tesseract processor arrangement
// (Figure 3) onto cluster ranks and builds the communicator groups every
// algorithm needs: rows and columns inside a depth layer, depth fibres, whole
// layers, and "slabs" (all processors sharing a grid column across layers).
//
// Rank layout is layer-major: rank = base + k·q² + i·q + j. With 4 GPUs per
// node this keeps each layer's rows packed onto as few nodes as possible,
// matching the paper's observation that Tesseract communicates most inside a
// layer and rarely across depth.
package mesh

import (
	"fmt"

	"repro/internal/dist"
)

// Shape is a [q, q, d] Tesseract arrangement. D = 1 is the 2-D (SUMMA /
// Optimus) special case; D = Q is the 3-D special case.
type Shape struct {
	Q, D int
	// Base is the first cluster rank used by the mesh, allowing several
	// meshes to share a cluster.
	Base int
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
func (s Shape) Rank(i, j, k int) int { return s.Base + k*s.Q*s.Q + i*s.Q + j }

// Coords inverts Rank.
func (s Shape) Coords(rank int) (i, j, k int) {
	r := rank - s.Base
	q2 := s.Q * s.Q
	k = r / q2
	r %= q2
	return r / s.Q, r % s.Q, k
}

// UniformLinks reports whether placement treats every processor alike: with
// ranks mapped to nodes gpusPerNode at a time, do all the mesh's rows span
// the same link class (all inside a node, or all across nodes — the
// slowest-link rule dist.Group prices by), and likewise all its columns and
// all its depth fibres, the three communicator families the layer schedules
// run on? Then every rank's clock advances identically and one rank stands
// for all. [3,3,d] at four GPUs per node is the counter-example: its first
// row sits inside node 0, its second straddles nodes 0 and 1.
func (s Shape) UniformLinks(gpusPerNode int) bool {
	spans := func(lo, hi int) bool { return lo/gpusPerNode != hi/gpusPerNode }
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
	// Layer spans (*, *, K): the q² processors of this depth layer,
	// row-major.
	Layer *dist.Group
	// Slab spans (*, J, *): the d·q processors sharing grid column J,
	// ordered by block row h = i + k·q (i.e. k-major then i). Activations
	// row-split across (i, k) are gathered here.
	Slab *dist.Group
	// All spans the whole mesh, ordered layer-major like the rank layout.
	All *dist.Group
}

// NewProc builds the mesh view for the calling worker. It panics if the
// worker's rank lies outside the mesh or the shape is invalid.
func NewProc(w *dist.Worker, s Shape) *Proc {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if w.Rank() < s.Base || w.Rank() >= s.Base+s.Size() {
		panic(fmt.Sprintf("mesh: rank %d outside mesh base=%d size=%d", w.Rank(), s.Base, s.Size()))
	}
	i, j, k := s.Coords(w.Rank())
	p := &Proc{W: w, Shape: s, I: i, J: j, K: k}
	c := w.Cluster()

	row := make([]int, s.Q)
	col := make([]int, s.Q)
	for t := 0; t < s.Q; t++ {
		row[t] = s.Rank(i, t, k)
		col[t] = s.Rank(t, j, k)
	}
	p.Row = c.Group(row...)
	p.Col = c.Group(col...)

	depth := make([]int, s.D)
	for t := 0; t < s.D; t++ {
		depth[t] = s.Rank(i, j, t)
	}
	p.Depth = c.Group(depth...)

	layer := make([]int, 0, s.Q*s.Q)
	for a := 0; a < s.Q; a++ {
		for b := 0; b < s.Q; b++ {
			layer = append(layer, s.Rank(a, b, k))
		}
	}
	p.Layer = c.Group(layer...)

	slab := make([]int, 0, s.Q*s.D)
	for t := 0; t < s.D; t++ {
		for a := 0; a < s.Q; a++ {
			slab = append(slab, s.Rank(a, j, t))
		}
	}
	p.Slab = c.Group(slab...)

	all := make([]int, 0, s.Size())
	for t := 0; t < s.D; t++ {
		for a := 0; a < s.Q; a++ {
			for b := 0; b < s.Q; b++ {
				all = append(all, s.Rank(a, b, t))
			}
		}
	}
	p.All = c.Group(all...)
	return p
}

// RowRank returns the rank of (I, j, K) — used to pick SUMMA broadcast roots.
func (p *Proc) RowRank(j int) int { return p.Shape.Rank(p.I, j, p.K) }

// ColRank returns the rank of (i, J, K).
func (p *Proc) ColRank(i int) int { return p.Shape.Rank(i, p.J, p.K) }

// DepthRank returns the rank of (I, J, k).
func (p *Proc) DepthRank(k int) int { return p.Shape.Rank(p.I, p.J, k) }

// BlockRow returns the activation block-row index h = i + k·q of this
// processor (Figure 4a / Algorithm 3).
func (p *Proc) BlockRow() int { return p.I + p.K*p.Shape.Q }
