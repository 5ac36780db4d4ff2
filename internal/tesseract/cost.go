package tesseract

import (
	"math"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/plan"
)

// PlanAlgo describes Tesseract to the auto-parallelism planner: feasible
// [q, q, d] grids within a rank budget, an analytic cost that mirrors the
// exact schedule Block.Forward/Backward run on the simulated cluster
// (double-buffered SUMMA per linear, row all-reduces for the layer norms,
// queued depth all-reduces drained behind the backward pass), and the
// per-rank memory a training step holds.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "tesseract",
		Grids:  tesseractGrids,
		Cost:   tesseractCost,
		Memory: tesseractMemory,
	}
}

// tesseractGrids enumerates the [q, q, d] layouts (1 ≤ d ≤ q, q²d within
// budget) whose divisibility constraints the layer stack accepts: hidden
// and heads split over q, activation rows split over d·q.
func tesseractGrids(w plan.Workload, budget int) []plan.Grid {
	var out []plan.Grid
	for q := 1; q*q <= budget; q++ {
		if w.Hidden%q != 0 || w.Heads%q != 0 {
			continue
		}
		for d := 1; d <= q && q*q*d <= budget; d++ {
			if w.Tokens()%(d*q) != 0 {
				continue
			}
			out = append(out, plan.Grid{Ranks: q * q * d, Q: q, D: d})
		}
	}
	return out
}

// meshLinks holds the worst-case inter-node flags of the three communicator
// families a [q, q, d] mesh uses. "Worst case" is exact for the simulated
// clock: ranks move in lockstep through the collective schedule, so the
// slowest instance of a group family (a grid row straddling a node
// boundary, say) sets the phase time for everyone.
type meshLinks struct {
	row, col, depth bool
}

// links computes the flags by walking every group instance of the mesh and
// checking whether its rank interval crosses a node boundary — the same
// slowest-link-spanned rule dist.Group prices with.
func links(g plan.Grid, t plan.Topology) meshLinks {
	s := mesh.Shape{Q: g.Q, D: g.D}
	var l meshLinks
	for k := 0; k < g.D; k++ {
		for i := 0; i < g.Q; i++ {
			if t.SpansNodes(s.Rank(i, 0, k), s.Rank(i, g.Q-1, k)) {
				l.row = true
			}
			if t.SpansNodes(s.Rank(0, i, k), s.Rank(g.Q-1, i, k)) {
				l.col = true
			}
		}
	}
	for i := 0; i < g.Q; i++ {
		for j := 0; j < g.Q; j++ {
			if t.SpansNodes(s.Rank(i, j, 0), s.Rank(i, j, g.D-1)) {
				l.depth = true
			}
		}
	}
	return l
}

func bytesOf(elems float64) int64 { return int64(plan.BytesPerElem * elems) }

// layerDims are the per-rank block dimensions of one Transformer layer on a
// [q, q, d] mesh.
type layerDims struct {
	mh float64 // local activation rows b·s/(d·q)
	hq float64 // local hidden columns h/q
	s  float64 // sequence length
	dh float64 // head dimension h/heads
	hl float64 // local heads heads/q
}

func dims(w plan.Workload, g plan.Grid) layerDims {
	return layerDims{
		mh: float64(w.Tokens()) / float64(g.D*g.Q),
		hq: float64(w.Hidden) / float64(g.Q),
		s:  float64(w.SeqLen),
		dh: float64(w.Hidden) / float64(w.Heads),
		hl: float64(w.Heads) / float64(g.Q),
	}
}

// summaCoster prices the three double-buffered SUMMA kernels and the
// point collectives of one layer on the shared accumulator, splitting
// every charge into compute and non-hidden comm so the Breakdown can report
// the comm share.
type summaCoster struct {
	plan.Coster
	q int
	l meshLinks
}

// pipeline charges one double-buffered SUMMA pass of q iterations whose
// stages — the prefetch broadcast, the GEMM, and (in the transposed
// variants) the in-flight partial reduce — run on independent channels
// that each serialise their own work. The steady state is paced by the
// slowest stage (q·max), and each other stage appears once more at the
// pipeline boundary: the broadcast as fill before the first GEMM, the
// reduce as drain after the last, the GEMM trailing a comm-bound pipeline.
// The compute share is the q GEMMs; the rest of the wall time is comm the
// pipeline could not hide.
func (c *summaCoster) pipeline(bcast, reduce, gemm float64) {
	slowest := math.Max(bcast, math.Max(reduce, gemm))
	total := float64(c.q)*slowest + (bcast + reduce + gemm - slowest)
	compute := float64(c.q) * gemm
	c.Comp += compute
	c.Comm += total - compute
}

// mulAB prices C = A·B on local blocks [rows × kl]·[kl × nl]: A panels
// broadcast along rows, B panels along columns, no reduce.
func (c *summaCoster) mulAB(rows, kl, nl float64) {
	if c.q == 1 {
		c.Flops(2 * rows * nl * kl)
		return
	}
	rowB := c.Model.BroadcastSeconds(c.q, bytesOf(rows*kl), c.l.row)
	colB := c.Model.BroadcastSeconds(c.q, bytesOf(kl*nl), c.l.col)
	c.pipeline(math.Max(rowB, colB), 0, c.Model.GEMMSeconds(rows, nl, kl))
}

// mulABT prices C = A·Bᵀ for dy [rows × cl] and W [rl × cl]: W panels
// broadcast down columns, partials reduced along rows.
func (c *summaCoster) mulABT(rows, rl, cl float64) {
	if c.q == 1 {
		c.Flops(2 * rows * rl * cl)
		return
	}
	colB := c.Model.BroadcastSeconds(c.q, bytesOf(rl*cl), c.l.col)
	rowR := c.Model.ReduceSeconds(c.q, bytesOf(rows*rl), c.l.row)
	c.pipeline(colB, rowR, c.Model.GEMMSeconds(rows, rl, cl))
}

// mulATB prices C = Aᵀ·B for x [rows × kl] and dy [rows × nl]: x panels
// broadcast along rows, partials reduced down columns. The depth all-reduce
// of the result is queued, not synchronous — the caller accounts it.
func (c *summaCoster) mulATB(rows, kl, nl float64) {
	if c.q == 1 {
		c.Flops(2 * kl * nl * rows)
		return
	}
	rowB := c.Model.BroadcastSeconds(c.q, bytesOf(rows*kl), c.l.row)
	colR := c.Model.ReduceSeconds(c.q, bytesOf(kl*nl), c.l.col)
	c.pipeline(rowB, colR, c.Model.GEMMSeconds(kl, nl, rows))
}

// colBroadcast charges a blocking broadcast over the column group (the
// bias distribution path).
func (c *summaCoster) colBroadcast(elems float64) {
	c.Comm += c.Model.BroadcastSeconds(c.q, bytesOf(elems), c.l.col)
}

// colReduce charges a blocking reduce over the column group (the bias
// gradient path).
func (c *summaCoster) colReduce(elems float64) {
	c.Comm += c.Model.ReduceSeconds(c.q, bytesOf(elems), c.l.col)
}

// rowAllReduce charges the layer norms' fused statistics all-reduce over
// the row group.
func (c *summaCoster) rowAllReduce(elems float64) {
	c.Comm += c.Model.AllReduceSeconds(c.q, bytesOf(elems), c.l.row)
}

// linearForward prices Linear.Forward on local blocks: one SUMMA AB pass,
// the bias broadcast down the column, the bias add, and the optional GELU.
func (c *summaCoster) linearForward(d layerDims, inl, outl float64, gelu bool) {
	c.mulAB(d.mh, inl, outl)
	c.colBroadcast(outl)
	c.Flops(d.mh * outl * compute.FlopsPerAdd)
	if gelu {
		c.Flops(d.mh * outl * compute.FlopsPerGELU)
	}
}

// linearBackward prices Linear.Backward minus the queued depth all-reduces
// (returned separately by depthComm): the GELU gradient, the Aᵀ·B weight
// gradient, the bias column-sum and reduce, and the A·Bᵀ input gradient.
func (c *summaCoster) linearBackward(d layerDims, inl, outl float64, gelu bool) {
	if gelu {
		c.Flops(d.mh * outl * (compute.FlopsPerGELU + compute.FlopsPerAdd))
	}
	c.mulATB(d.mh, inl, outl)
	c.Flops(d.mh * outl * compute.FlopsPerAdd) // bias column sums
	c.colReduce(outl)
	c.mulABT(d.mh, inl, outl)
}

// layerNorm prices one LayerNorm pass (forward and backward charge alike):
// the packed row statistics, their row all-reduce, and the normalise step.
func (c *summaCoster) layerNorm(d layerDims) {
	c.Flops(2 * d.mh * d.hq * compute.FlopsPerAdd)
	c.rowAllReduce(d.mh * 2)
	c.Flops(d.mh * d.hq * compute.FlopsPerNorm)
}

// forwardLayer prices one Block.Forward: QKV linear, local attention,
// output projection, and the MLP, with residual adds and layer norms.
func (c *summaCoster) forwardLayer(d layerDims) {
	c.linearForward(d, d.hq, 3*d.hq, false) // fused QKV
	c.Flops(d.mh / d.s * d.hl * (4*d.s*d.s*d.dh + compute.FlopsPerSoftmax*d.s*d.s))
	c.linearForward(d, d.hq, d.hq, false) // output projection
	c.Flops(d.mh * d.hq * compute.FlopsPerAdd)
	c.layerNorm(d)
	c.linearForward(d, d.hq, 4*d.hq, true) // MLP fc1 + GELU
	c.linearForward(d, 4*d.hq, d.hq, false)
	c.Flops(d.mh * d.hq * compute.FlopsPerAdd)
	c.layerNorm(d)
}

// backwardLayer prices one Block.Backward without the queued depth
// all-reduces.
func (c *summaCoster) backwardLayer(d layerDims) {
	c.layerNorm(d)
	c.linearBackward(d, 4*d.hq, d.hq, false) // fc2
	c.linearBackward(d, d.hq, 4*d.hq, true)  // fc1 (GELU)
	c.Flops(d.mh * d.hq * compute.FlopsPerAdd)
	c.layerNorm(d)
	c.linearBackward(d, d.hq, d.hq, false) // projection
	c.Flops(d.mh / d.s * d.hl * (8*d.s*d.s*d.dh + compute.FlopsPerSoftmax*d.s*d.s))
	c.linearBackward(d, d.hq, 3*d.hq, false) // QKV
	c.Flops(d.mh * d.hq * compute.FlopsPerAdd)
}

// depthComm is the serial comm time of the §3.1 depth all-reduces one
// layer's backward pass queues: the four weight-gradient shards plus the
// row-0 bias gradients, all on the rank's depth fibre.
func depthComm(m dist.CostModel, g plan.Grid, l meshLinks, d layerDims) float64 {
	if g.D == 1 {
		return 0
	}
	var t float64
	for _, shard := range []float64{
		d.hq * 3 * d.hq, 3 * d.hq, // QKV weight + bias
		d.hq * d.hq, d.hq, // projection
		d.hq * 4 * d.hq, 4 * d.hq, // fc1
		4 * d.hq * d.hq, d.hq, // fc2
	} {
		t += m.AllReduceSeconds(g.D, bytesOf(shard), l.depth)
	}
	return t
}

// tesseractCost prices a workload on one [q, q, d] grid. The forward phase
// is Layers forward passes; the backward phase re-runs the forward
// (activation recompute, unless disabled) and then the backward passes,
// with the queued depth all-reduces overlapping the backward work — the
// phase ends no earlier than either finishes.
func tesseractCost(w plan.Workload, g plan.Grid, t plan.Topology) plan.Breakdown {
	d := dims(w, g)
	l := links(g, t)

	fwd := &summaCoster{Coster: plan.Coster{Model: t.Cost}, q: g.Q, l: l}
	fwd.forwardLayer(d)
	bwd := &summaCoster{Coster: plan.Coster{Model: t.Cost}, q: g.Q, l: l}
	bwd.backwardLayer(d)
	return plan.Assemble(w, &fwd.Coster, &bwd.Coster, depthComm(t.Cost, g, l, d))
}

// tesseractMemory estimates the bytes one rank holds across a training
// step: parameter shards with their gradients, the activations the
// backward pass retains (dominated by the attention probabilities and the
// MLP intermediates), the input/output gradient blocks, and the pipeline's
// double-buffered panels.
func tesseractMemory(w plan.Workload, g plan.Grid) int64 {
	d := dims(w, g)
	L := float64(w.Layers)
	weights := 12*d.hq*d.hq + 9*d.hq // four weight shards + row-0 biases
	probs := d.mh * d.s * d.hl       // retained softmax matrices
	acts := 19*d.mh*d.hq + probs + 2*d.mh
	panels := 4*d.mh*4*d.hq + 2*4*d.hq*d.hq // double-buffered panels + partials at the widest multiply
	io := 2 * d.mh * d.hq
	return bytesOf(L*(2*weights+acts) + panels + io)
}
