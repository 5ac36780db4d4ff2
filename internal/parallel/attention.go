package parallel

import (
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
// for the backward pass — one [SeqLen, SeqLen] buffer per (sequence, head)
// on real data, one phantom of their total size in phantom mode, the same
// bytes — and Backward returns them once it has read them.
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
// outputs [rows, Heads·HeadDim], a workspace buffer; compute.AttentionForward
// charges and runs the core, one closed form on real and phantom operands.
func (a *HeadAttention) Forward(w *dist.Worker) *tensor.Matrix {
	ws, q := w.Workspace(), a.q
	out := ws.GetUninitMatch(q.Rows, q.Cols, q.Phantom()) // every head block is overwritten
	a.probs = a.probs[:0]
	if q.Phantom() {
		a.probs = append(a.probs, ws.GetUninitMatch(q.Rows*a.Heads, a.SeqLen, true))
	} else {
		for range q.Rows / a.SeqLen * a.Heads {
			a.probs = append(a.probs, ws.GetUninit(a.SeqLen, a.SeqLen))
		}
	}
	compute.AttentionForward(w, out, q, a.k, a.v, a.probs, a.Heads, a.SeqLen)
	return out
}

// Backward maps the gradient of Forward's output to the gradient of the
// fused [Q | K | V] block Split consumed, a workspace buffer owned by the
// caller (compute.AttentionBackward charges and runs the core), and returns
// the retained Q, K, V and probabilities to the workspace: it is their last
// reader.
func (a *HeadAttention) Backward(w *dist.Worker, dout *tensor.Matrix) *tensor.Matrix {
	ws := w.Workspace()
	dqkv := ws.GetUninitMatch(dout.Rows, 3*a.q.Cols, dout.Phantom()) // every block is overwritten
	compute.AttentionBackward(w, dqkv, dout, a.q, a.k, a.v, a.probs, a.Heads, a.SeqLen)
	ws.Put(a.q, a.k, a.v)
	ws.Put(a.probs...)
	a.q, a.k, a.v, a.probs = nil, nil, nil, a.probs[:0]
	return dqkv
}
