package parallel

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// View is every family's activation layout, layer norm, Transformer block
// and step hooks. It is built from the family's linears and the two groups
// the family splits activations over (a Mesh-TensorFlow layout): rows over
// one, columns over the other, nil for an axis not split. Tesseract and
// Optimus split rows over the slab in block-row order h = i + k·q and
// columns over the grid row (Figure 4a); sequence parallelism splits rows
// over its group; Megatron-LM splits neither, so Distribute, Collect and
// GatherPooled return their argument. A named group is gathered even when
// it has one member.
type View struct {
	*Grads // the rank's deferred gradient all-reduces

	layout     Layout
	w          *dist.Worker
	rows, cols *dist.Group
	row, col   int     // the rank's index in rows and cols, 0 where not split
	lin        Linears // the family's linears, which the blocks are built over
}

// NewView builds the calling rank's view of layout l, whose activation rows
// split over rows and columns over cols, deferring gradients onto grads and
// building blocks over lin. A family passes itself as lin:
// f := &Family{…}; f.View = parallel.NewView(…, f).
func NewView(w *dist.Worker, l Layout, rows, cols *dist.Group, grads *Grads, lin Linears) View {
	v := View{Grads: grads, layout: l, w: w, rows: rows, cols: cols, lin: lin}
	if rows != nil {
		v.row = rows.Index(w.Rank())
	}
	if cols != nil {
		v.col = cols.Index(w.Rank())
	}
	return v
}

// Layout, Worker and RowShards (the row group's size) are
// parallel.Family's.
func (v *View) Layout() Layout       { return v.layout }
func (v *View) Worker() *dist.Worker { return v.w }
func (v *View) RowShards() int       { return shards(v.rows) }

// EndStep is the step boundary: it gathers every band an optimiser stepped
// since the last boundary (GatherBands), so every replica's Value is whole
// before anything reads it, and releases the rank's workspace.
func (v *View) EndStep() {
	v.GatherBands()
	v.w.Workspace().ReleaseAll()
}

func shards(g *dist.Group) int {
	if g == nil {
		return 1
	}
	return g.Size()
}

// NewLayerNorm builds the layer norm over hidden width h, whose row
// statistics sum over the column group.
func (v *View) NewLayerNorm(h int) Layer { return NewLayerNorm(v.w, v.cols, h) }

// NewHead builds the classifier head: the Dense over the whole weight,
// computed redundantly on every rank from replicated features, so its
// partials are its gradients — the standard treatment for heads whose cost
// is negligible.
func (v *View) NewHead(in, out int, rng *tensor.RNG) *Dense {
	return NewReplicatedDense(v.w, nil, v.Grads, in, out, nn.ActNone, true, rng)
}

// Slice is block (row, col) of the row and column splits.
func (v *View) Slice(rows, cols int) Slice {
	rs, cs := v.RowShards(), shards(v.cols)
	if rows%rs != 0 || cols%cs != 0 {
		panic(fmt.Sprintf("parallel: %s cannot split a %dx%d activation into %dx%d blocks", v.layout, rows, cols, rs, cs))
	}
	r, c := rows/rs, cols/cs
	return Slice{Row0: v.row * r, Col0: v.col * c, Rows: r, Cols: c}
}

// Distribute copies the rank's Slice into a workspace buffer.
func (v *View) Distribute(global *tensor.Matrix) *tensor.Matrix {
	if v.rows == nil && v.cols == nil {
		return global
	}
	s := v.Slice(global.Rows, global.Cols)
	local := v.w.Workspace().GetUninitMatch(s.Rows, s.Cols, global.Phantom())
	tensor.SubMatrixInto(local, global, s.Row0, s.Col0)
	return local
}

// Collect leaves local with the caller (a saved activation);
// GatherPooled takes it over and returns it to the workspace.
func (v *View) Collect(local *tensor.Matrix) *tensor.Matrix      { return v.gather(local, false) }
func (v *View) GatherPooled(local *tensor.Matrix) *tensor.Matrix { return v.gather(local, true) }

// gather all-gathers columns, then rows, into workspace buffers. An
// all-gather has read every member's block when it returns, so each buffer
// it read — x when owned, the intermediate always — goes back right after.
func (v *View) gather(x *tensor.Matrix, owned bool) *tensor.Matrix {
	ws := v.w.Workspace()
	if v.cols != nil {
		wide := ws.GetUninitMatch(x.Rows, v.cols.Size()*x.Cols, x.Phantom())
		v.cols.AllGatherInto(v.w, x, wide)
		if owned {
			ws.Put(x)
		}
		x, owned = wide, true
	}
	if v.rows != nil {
		full := ws.GetUninitMatch(v.rows.Size()*x.Rows, x.Cols, x.Phantom())
		v.rows.AllGatherInto(v.w, x, full)
		if owned {
			ws.Put(x)
		}
		x = full
	}
	return x
}

// Grads is where one rank's parameter gradients land (Land): a backward
// pass computes each gradient's partial straight into the parameter's Grad,
// launches its sum the moment it is ready and carries on into earlier
// layers, and DrainGradients waits the sums. It also holds the parameters
// whose optimiser state splits by rows over the group that replicates them
// (Band), which the step boundary gathers (GatherBands).
type Grads struct {
	w       *dist.Worker
	pending []dist.Handle
	summed  int // parameters the rank's layers land over a group (Expect)

	expected, landed int // parameters declared (Expect) and landed since the last drain

	bands []band
}

// band is one banded parameter, the group its bands gather over, and the
// header of this rank's band that an in-flight gather borrows.
type band struct {
	p    *nn.Param
	g    *dist.Group
	rows tensor.Matrix
}

// NewGrads returns the calling rank's empty queue.
func NewGrads(w *dist.Worker) Grads { return Grads{w: w} }

// Expect is called by a layer as it is built: it will land n parameters
// over g (nil: not summed) per backward pass. The queue is then sized once,
// at the first sum, for every parameter the rank's layers land over a group.
func (q *Grads) Expect(g *dist.Group, n int) {
	q.expected += n
	if g != nil {
		q.summed += n
	}
}

// Land finishes p's gradient, whose partial the layer has just computed
// into p.Grad, by summing it in place over g, the group that replicates p
// (§3.1). With g nil the partial is the gradient and nothing is left to do;
// otherwise g's in-place all-reduce starts now and is waited at
// DrainGradients. A parameter lands once per backward pass.
func (q *Grads) Land(g *dist.Group, p *nn.Param) {
	q.landed++
	if g == nil {
		return
	}
	q.queue(g.IAllReduceInto(q.w, p.Grad, p.Grad))
}

// queue files h to be waited, sizing the queue once, at the first handle,
// for every parameter the rank's layers land over a group — which the
// bands, each landed over its group, never outnumber.
func (q *Grads) queue(h dist.Handle) {
	if q.pending == nil {
		q.pending = make([]dist.Handle, 0, q.summed)
	}
	q.pending = append(q.pending, h)
}

// Band splits p's optimiser state by rows over g, the group that
// replicates p (the depth fibre of §3.1): member k of n steps rows
// [k·r/n, (k+1)·r/n) of p's r, against moments of that many rows, and
// GatherBands puts the n bands back together on every member. It does
// nothing when g is nil or has one member, when n does not divide r, or
// for a phantom p, which no optimiser steps.
func (q *Grads) Band(g *dist.Group, p *nn.Param) {
	if g == nil || p.Value.Phantom() {
		return
	}
	n, r := g.Size(), p.Value.Rows
	if n == 1 || r%n != 0 {
		return
	}
	k := g.Index(q.w.Rank())
	p.SetBand(k*r/n, (k+1)*r/n)
	q.bands = append(q.bands, band{p: p, g: g})
}

// GatherBands all-gathers every stale band (nn.Param.Stale) over its
// group — one nonblocking all-gather each, all in flight before the first
// Wait — so that every member's Value is whole again. Every member of a
// band's group steps or restores the same parameters, so they gather the
// same bands in the same order.
func (q *Grads) GatherBands() {
	for i := range q.bands {
		b := &q.bands[i]
		if !b.p.Stale() {
			continue
		}
		b.rows = b.p.BandRows(b.p.Value)
		q.queue(b.g.IAllGatherInto(q.w, &b.rows, b.p.Value))
		b.p.Gathered()
	}
	q.wait()
}

// DrainGradients waits every queued sum in issue order; afterwards
// gradients are final.
func (q *Grads) DrainGradients() {
	q.wait()
	q.landed = 0
}

// wait waits every pending handle in issue order.
func (q *Grads) wait() {
	for i := range q.pending {
		q.pending[i].Wait()
		q.pending[i] = dist.Handle{}
	}
	q.pending = q.pending[:0]
}
