// Package cannon implements Cannon's 2-D matrix multiplication algorithm
// (Algorithm 1 of the paper; Cannon 1969) on a q×q mesh layer. It is one of
// the two historical baselines the paper compares Tesseract against for
// communication volume (§1, §3.1): with p processors a full multiplication
// performs 2p^{3/2} − 2p^{1/2} block transfers, which our implementation
// reproduces exactly (see the package tests).
package cannon

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/mesh"
	"repro/internal/tensor"
)

// MulAB multiplies block-distributed matrices with Cannon's algorithm.
// The caller at grid position (i, j) passes its blocks A[i,j] and B[i,j];
// the result is the local block C[i,j] of C = A·B.
//
// The schedule follows Algorithm 1: skew A left by i and B up by j, then q
// rounds of local multiply-accumulate with single-step shifts in between.
func MulAB(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("cannon: local blocks %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	q := p.Shape.Q
	var c *tensor.Matrix
	if a.Phantom() || b.Phantom() {
		c = tensor.NewPhantom(a.Rows, b.Cols)
	} else {
		c = tensor.New(a.Rows, b.Cols)
	}
	// Initial skew (Figure 1a).
	a = ShiftLeft(p, a, p.I)
	b = ShiftUp(p, b, p.J)
	for t := 0; t < q; t++ {
		compute.MatMulInto(p.W, c, a, b)
		if t < q-1 {
			// Single-step shift (Figure 1b).
			a = ShiftLeft(p, a, 1)
			b = ShiftUp(p, b, 1)
		}
	}
	return c
}

// ShiftLeft circularly moves blocks s positions left along the caller's mesh
// row and returns the block arriving from the right. A zero (mod q) shift is
// free.
func ShiftLeft(p *mesh.Proc, m *tensor.Matrix, s int) *tensor.Matrix {
	q := p.Shape.Q
	s = ((s % q) + q) % q
	if s == 0 {
		return m
	}
	dst := p.RowRank((p.J - s + q) % q)
	src := p.RowRank((p.J + s) % q)
	p.W.Send(dst, m)
	return p.W.Recv(src)
}

// ShiftUp circularly moves blocks s positions up along the caller's mesh
// column and returns the block arriving from below.
func ShiftUp(p *mesh.Proc, m *tensor.Matrix, s int) *tensor.Matrix {
	q := p.Shape.Q
	s = ((s % q) + q) % q
	if s == 0 {
		return m
	}
	dst := p.ColRank((p.I - s + q) % q)
	src := p.ColRank((p.I + s) % q)
	p.W.Send(dst, m)
	return p.W.Recv(src)
}
