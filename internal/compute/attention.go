package compute

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// AttentionForward is the attention core of §2.4 on one rank's heads: q, k,
// v and out are [rows, heads·dh] blocks of whole sequences of s rows, and
// each (sequence, head) i = seq·heads+head writes probs[i] = softmax(QKᵀ/√dh)
// and its block of out, probs[i]·V. It charges
// rows/s · heads · (4·s²·dh + FlopsPerSoftmax·s²) in one sum on real and
// phantom operands alike — rows/s may be fractional on a phantom (Table 1's
// [4,4,2] at batch 12 holds 1.5 sequences a rank) — so a phantom replay
// advances the real execution's clock bit for bit; the kernels run only on
// real operands. The per-head scratch is checked out of w's workspace on
// both paths and returned.
func AttentionForward(w *dist.Worker, out, q, k, v *tensor.Matrix, probs []*tensor.Matrix, heads, s int) {
	ws, ph, dh := w.Workspace(), q.Phantom(), q.Cols/heads
	attentionCharge(w, ph, q.Rows, heads, s, dh, 4)
	get := func(cols int) *tensor.Matrix { return ws.GetUninitMatch(s, cols, ph) }
	qs, ks, vs, head, scores := get(dh), get(dh), get(dh), get(dh), get(s)
	scale := 1 / math.Sqrt(float64(dh))
	for i := 0; !ph && i < len(probs); i++ {
		r, c := i/heads*s, i%heads*dh
		tensor.SubMatrixInto(qs, q, r, c)
		tensor.SubMatrixInto(ks, k, r, c)
		tensor.SubMatrixInto(vs, v, r, c)
		tensor.MatMulNTInto(scores, qs, ks)
		tensor.ScaleInPlace(scores, scale)
		tensor.SoftmaxRowsTo(probs[i], scores)
		head.Zero()
		tensor.MatMulInto(head, probs[i], vs)
		out.SetSubMatrix(r, c, head)
	}
	ws.Put(qs, ks, vs, scores, head)
}

// AttentionBackward maps dout, the gradient of AttentionForward's out, to
// dqkv, the gradient of the fused [Q | K | V] block, reading the retained q,
// k, v and probs. It charges rows/s · heads · (8·s²·dh + FlopsPerSoftmax·s²)
// in one sum on both paths and runs the kernels only on real operands.
func AttentionBackward(w *dist.Worker, dqkv, dout, q, k, v *tensor.Matrix, probs []*tensor.Matrix, heads, s int) {
	ws, ph, dh := w.Workspace(), dout.Phantom(), q.Cols/heads
	attentionCharge(w, ph, dout.Rows, heads, s, dh, 8)
	get := func(cols int) *tensor.Matrix { return ws.GetUninitMatch(s, cols, ph) }
	dhead, qs, ks, vs, dvs := get(dh), get(dh), get(dh), get(dh), get(dh)
	dprobs, dscores, dqs, dks := get(s), get(s), get(dh), get(dh)
	scale := 1 / math.Sqrt(float64(dh))
	for i := 0; !ph && i < len(probs); i++ {
		r, c := i/heads*s, i%heads*dh
		tensor.SubMatrixInto(dhead, dout, r, c)
		tensor.SubMatrixInto(qs, q, r, c)
		tensor.SubMatrixInto(ks, k, r, c)
		tensor.SubMatrixInto(vs, v, r, c)
		dvs.Zero()
		tensor.MatMulTNInto(dvs, probs[i], dhead)
		tensor.MatMulNTInto(dprobs, dhead, vs)
		tensor.SoftmaxRowsBackwardTo(dscores, probs[i], dprobs)
		tensor.ScaleInPlace(dscores, scale)
		dqs.Zero()
		tensor.MatMulInto(dqs, dscores, ks)
		dks.Zero()
		tensor.MatMulTNInto(dks, dscores, qs)
		dqkv.SetSubMatrix(r, c, dqs)
		dqkv.SetSubMatrix(r, q.Cols+c, dks)
		dqkv.SetSubMatrix(r, 2*q.Cols+c, dvs)
	}
	ws.Put(dhead, qs, ks, vs, dvs, dprobs, dscores, dqs, dks)
}

// attentionCharge charges the core's closed form: per (sequence, head),
// gemms·s²·dh for its GEMMs and FlopsPerSoftmax·s² for its softmax. Real
// operands must hold whole sequences.
func attentionCharge(w *dist.Worker, phantom bool, rows, heads, s, dh int, gemms float64) {
	if !phantom && rows%s != 0 {
		panic(fmt.Sprintf("compute: attention rows %d not divisible by seq len %d (ranks must hold whole sequences)", rows, s))
	}
	perHead := gemms*float64(s)*float64(s)*float64(dh) + FlopsPerSoftmax*float64(s)*float64(s)
	w.Compute(float64(rows) / float64(s) * float64(heads) * perHead)
}
