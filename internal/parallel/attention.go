package parallel

import (
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/tensor"
)

// HeadAttention is the local scaled-dot-product attention every family
// runs between its fused QKV projection and its output projection. All
// four families lay the fused projection out head-aligned, so a rank's
// [rows, 3·Heads·HeadDim] block is [Q | K | V] for Heads whole heads over
// whole sequences of SeqLen rows and softmax(QKᵀ/√d)·V needs no
// communication: Tesseract and Optimus own n/q heads of b/(dq) sequences,
// the 1-D families n/p heads of every sequence. Heads is the local count.
//
// Q, K, V and the per-head probabilities are workspace buffers retained
// for the backward pass (in phantom mode the probabilities are one phantom of
// their total size); Backward returns them once it has read them.
type HeadAttention struct {
	Heads, HeadDim, SeqLen int

	q, k, v *tensor.Matrix
	probs   []*tensor.Matrix
}

// Split copies the fused local projection into the retained Q, K and V
// buffers. qkv is not referenced afterwards, so the caller may recycle it at
// once.
func (a *HeadAttention) Split(w *dist.Worker, qkv *tensor.Matrix) {
	ws := w.Workspace()
	hl := a.Heads * a.HeadDim
	ph := qkv.Phantom()
	a.q = ws.GetUninitMatch(qkv.Rows, hl, ph)
	a.k = ws.GetUninitMatch(qkv.Rows, hl, ph)
	a.v = ws.GetUninitMatch(qkv.Rows, hl, ph)
	tensor.SubMatrixInto(a.q, qkv, 0, 0)
	tensor.SubMatrixInto(a.k, qkv, 0, hl)
	tensor.SubMatrixInto(a.v, qkv, 0, 2*hl)
}

// Forward attends over the split Q, K, V and returns the concatenated head
// outputs [rows, Heads·HeadDim], a workspace buffer. In phantom mode the
// arithmetic is skipped and the flop cost is charged analytically, using a
// possibly fractional sequences-per-rank count (the paper's Table 1
// includes shapes like [4,4,2] with batch 12, where b/(dq) = 1.5); the
// buffers are checked out all the same — the per-head scratch, and one
// [rows·Heads, SeqLen] phantom standing for the retained probabilities — so
// the workspace holds what the real loop holds.
func (a *HeadAttention) Forward(w *dist.Worker) *tensor.Matrix {
	ws := w.Workspace()
	q, k, v := a.q, a.k, a.v
	dh, s := a.HeadDim, a.SeqLen
	ph := q.Phantom()
	if !ph && q.Rows%s != 0 {
		panic(fmt.Sprintf("parallel: attention rows %d not divisible by seq len %d (ranks must hold whole sequences)", q.Rows, s))
	}
	out := ws.GetUninitMatch(q.Rows, q.Cols, ph) // every head block is overwritten below
	a.probs = a.probs[:0]
	qs := ws.GetUninitMatch(s, dh, ph)
	ks := ws.GetUninitMatch(s, dh, ph)
	vs := ws.GetUninitMatch(s, dh, ph)
	scores := ws.GetUninitMatch(s, s, ph)
	head := ws.GetUninitMatch(s, dh, ph)
	if ph {
		seqF := float64(q.Rows) / float64(s)
		perHead := 4*float64(s)*float64(s)*float64(dh) + compute.FlopsPerSoftmax*float64(s)*float64(s)
		w.Compute(seqF * float64(a.Heads) * perHead)
		a.probs = append(a.probs, ws.GetUninitMatch(q.Rows*a.Heads, s, true))
		ws.Put(qs, ks, vs, scores, head)
		return out
	}
	nseq := q.Rows / s
	scale := 1 / math.Sqrt(float64(dh))
	for sq := 0; sq < nseq; sq++ {
		for hd := 0; hd < a.Heads; hd++ {
			tensor.SubMatrixInto(qs, q, sq*s, hd*dh)
			tensor.SubMatrixInto(ks, k, sq*s, hd*dh)
			tensor.SubMatrixInto(vs, v, sq*s, hd*dh)
			compute.MatMulNTInto(w, scores, qs, ks)
			tensor.ScaleInPlace(scores, scale)
			probs := ws.GetUninit(s, s) // retained for the backward pass
			compute.SoftmaxRowsTo(w, probs, scores)
			a.probs = append(a.probs, probs)
			head.Zero()
			compute.MatMulInto(w, head, probs, vs)
			out.SetSubMatrix(sq*s, hd*dh, head)
		}
	}
	ws.Put(qs, ks, vs, scores, head)
	return out
}

// Backward maps the gradient of Forward's output to the gradient of the
// fused [Q | K | V] block Split consumed, a workspace buffer owned by the
// caller, and returns the retained Q, K, V and probabilities to the
// workspace: it is their last reader. Phantom mode charges the flops
// analytically and checks out the scratch the real loop takes.
func (a *HeadAttention) Backward(w *dist.Worker, dout *tensor.Matrix) *tensor.Matrix {
	ws := w.Workspace()
	dh, s := a.HeadDim, a.SeqLen
	hl := a.Heads * dh
	ph := dout.Phantom()
	dqkv := ws.GetUninitMatch(dout.Rows, 3*hl, ph) // every block is overwritten below
	dhead := ws.GetUninitMatch(s, dh, ph)
	qs := ws.GetUninitMatch(s, dh, ph)
	ks := ws.GetUninitMatch(s, dh, ph)
	vs := ws.GetUninitMatch(s, dh, ph)
	dvs := ws.GetUninitMatch(s, dh, ph)
	dprobs := ws.GetUninitMatch(s, s, ph)
	dscores := ws.GetUninitMatch(s, s, ph)
	dqs := ws.GetUninitMatch(s, dh, ph)
	dks := ws.GetUninitMatch(s, dh, ph)
	if ph {
		seqF := float64(dout.Rows) / float64(s)
		perHead := 8*float64(s)*float64(s)*float64(dh) + compute.FlopsPerSoftmax*float64(s)*float64(s)
		w.Compute(seqF * float64(a.Heads) * perHead)
		ws.Put(dhead, qs, ks, vs, dvs, dprobs, dscores, dqs, dks)
		a.release(ws)
		return dqkv
	}
	nseq := dout.Rows / s
	scale := 1 / math.Sqrt(float64(dh))
	for sq := 0; sq < nseq; sq++ {
		for hd := 0; hd < a.Heads; hd++ {
			probs := a.probs[sq*a.Heads+hd]
			tensor.SubMatrixInto(dhead, dout, sq*s, hd*dh)
			tensor.SubMatrixInto(qs, a.q, sq*s, hd*dh)
			tensor.SubMatrixInto(ks, a.k, sq*s, hd*dh)
			tensor.SubMatrixInto(vs, a.v, sq*s, hd*dh)

			dvs.Zero()
			compute.MatMulTNInto(w, dvs, probs, dhead)
			compute.MatMulNTInto(w, dprobs, dhead, vs)
			compute.SoftmaxRowsBackwardTo(w, dscores, probs, dprobs)
			tensor.ScaleInPlace(dscores, scale)
			dqs.Zero()
			compute.MatMulInto(w, dqs, dscores, ks)
			dks.Zero()
			compute.MatMulTNInto(w, dks, dscores, qs)

			dqkv.SetSubMatrix(sq*s, hd*dh, dqs)
			dqkv.SetSubMatrix(sq*s, hl+hd*dh, dks)
			dqkv.SetSubMatrix(sq*s, 2*hl+hd*dh, dvs)
		}
	}
	ws.Put(dhead, qs, ks, vs, dvs, dprobs, dscores, dqs, dks)
	a.release(ws)
	return dqkv
}

// release returns the retained Q, K, V and probabilities to ws.
func (a *HeadAttention) release(ws *tensor.Workspace) {
	ws.Put(a.q, a.k, a.v)
	a.q, a.k, a.v = nil, nil, nil
	ws.Put(a.probs...)
	a.probs = a.probs[:0]
}
