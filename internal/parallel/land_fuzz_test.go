package parallel_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// FuzzLandedGradients runs one real Transformer block forward, backward and
// DrainGradients on a generated layout of a generated family — q ≤ 3 and
// d ≤ q on a mesh, p ≤ 4 in 1-D — with generated heads, head width,
// sequence length and sequences per row shard, and holds every parameter's
// landed gradient, read through State() in canonical coordinates, to
// nn.Block's within 1e-9 on every rank that holds a piece of it. The fused
// QKV slots are [Wq | Wk | Wv] and [bq | bk | bv]. Every parameter the rank
// holds lands once: a landing sums the gradient in place, so a second one
// would sum a sum, or overwrite a partial a reduce already finished.
func FuzzLandedGradients(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint8(1), uint8(0), uint8(1), uint8(2), uint8(0), uint64(1)) // tesseract [2,2,2]
	f.Add(uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), uint8(1), uint8(1), uint64(2)) // optimus [2,2]
	f.Add(uint8(2), uint8(3), uint8(0), uint8(0), uint8(2), uint8(3), uint8(0), uint64(3)) // megatron [4]
	f.Add(uint8(3), uint8(2), uint8(0), uint8(1), uint8(1), uint8(0), uint8(1), uint64(4)) // seqpar [3]
	f.Add(uint8(0), uint8(2), uint8(1), uint8(0), uint8(0), uint8(1), uint8(0), uint64(5)) // tesseract [3,3,2]
	f.Fuzz(func(t *testing.T, family, a, b, headsPerShard, headWidth, seqLen, seqsPerShard uint8, seed uint64) {
		var l parallel.Layout
		switch family % 4 {
		case 0:
			q := int(a)%3 + 1
			l = parallel.Layout{Family: "tesseract", Q: q, D: int(b)%q + 1}
		case 1:
			l = parallel.Layout{Family: "optimus", Q: int(a)%3 + 1}
		case 2:
			l = parallel.Layout{Family: "megatron", Ranks: int(a)%4 + 1}
		default:
			l = parallel.Layout{Family: "seqpar", Ranks: int(a)%4 + 1}
		}
		l, err := parallel.Validate(l)
		if err != nil {
			t.Fatal(err)
		}
		heads := shardsOf(l) * (int(headsPerShard)%2 + 1)
		h, s := heads*(int(headWidth)%3+1), int(seqLen)%4+1
		rows := l.RowShards() * (int(seqsPerShard)%2 + 1) * s

		rng := tensor.NewRNG(seed)
		x, dz := tensor.RandomMatrix(rows, h, rng), tensor.RandomMatrix(rows, h, rng)
		serial := nn.NewBlock(h, heads, s, tensor.NewRNG(seed+1))
		serial.Forward(x)
		serial.Backward(dz)
		want := canonicalGrads(serial)

		c := dist.New(dist.Config{WorldSize: l.Ranks})
		defer c.Close()
		err = c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			blk := f.NewBlock(h, heads, s, tensor.NewRNG(seed+1))
			blk.Forward(f.Distribute(x))
			blk.Backward(f.Distribute(dz))
			if landed, expected := parallel.GradsOf(f).Landed(); landed != len(blk.Params()) || expected != landed {
				return fmt.Errorf("%d parameters landed, %d declared, the block holds %d", landed, expected, len(blk.Params()))
			}
			f.DrainGradients()
			states := blk.State()
			if len(states) != len(want) {
				return fmt.Errorf("%d state slots, nn.Block has %d", len(states), len(want))
			}
			for i, st := range states {
				if st.Rows != want[i].Rows || st.Cols != want[i].Cols {
					return fmt.Errorf("slot %d is %dx%d, nn.Block's %dx%d", i, st.Rows, st.Cols, want[i].Rows, want[i].Cols)
				}
				if st.Param == nil {
					continue
				}
				for _, r := range st.Blocks {
					for i2 := 0; i2 < r.Rows; i2++ {
						for j := 0; j < r.Cols; j++ {
							got := st.Param.Grad.At(r.LocalRow+i2, r.LocalCol+j)
							ref := want[i].At(r.GlobalRow+i2, r.GlobalCol+j)
							if math.Abs(got-ref) > 1e-9 {
								return fmt.Errorf("slot %d [%d,%d]: landed %g, nn.Block %g",
									i, r.GlobalRow+i2, r.GlobalCol+j, got, ref)
							}
						}
					}
				}
			}
			f.EndStep()
			return nil
		})
		if err != nil {
			t.Fatalf("%s, h %d, heads %d, seq %d, rows %d: %v", l, h, heads, s, rows, err)
		}
	})
}

// TestEveryParameterLandsOnce runs two real steps of every layer a
// registered family builds — the patch embedding (NewLinear), a Transformer
// block and the classifier head — on the family's widest layout of at most 8
// ranks that the workload splits, and holds the parameters that landed in
// each backward pass to the ones the rank holds, each declared once as its
// layer was built; the drain starts the count afresh.
func TestEveryParameterLandsOnce(t *testing.T) {
	const in, h, heads, seqLen, batch, classes = 6, 16, 4, 2, 8, 3
	rows := batch * seqLen
	rng := tensor.NewRNG(7)
	x, feats := tensor.RandomMatrix(rows, in, rng), tensor.RandomMatrix(rows, h, rng)
	dz, dlogits := tensor.RandomMatrix(rows, h, rng), tensor.RandomMatrix(rows, classes, rng)
	for _, name := range parallel.Families() {
		layouts, err := parallel.Layouts(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		var l parallel.Layout
		for c := range layouts {
			if c.Ranks > l.Ranks && parallel.Fits(c, batch, seqLen, h, heads) {
				l = c
			}
		}
		c := dist.New(dist.Config{WorldSize: l.Ranks})
		err = c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			wrng := tensor.NewRNG(11)
			emb := f.NewLinear(in, h, nn.ActGELU, true, wrng)
			blk := f.NewBlock(h, heads, seqLen, wrng)
			head := f.NewHead(h, classes, wrng)
			held := len(emb.Params()) + len(blk.Params()) + len(head.Params())
			g := parallel.GradsOf(f)
			for step := 0; step < 2; step++ {
				blk.Forward(emb.Forward(f.Distribute(x)))
				head.Forward(feats)
				head.Backward(dlogits)
				emb.Backward(blk.Backward(f.Distribute(dz)))
				if landed, expected := g.Landed(); landed != held || expected != held {
					return fmt.Errorf("step %d: %d parameters landed, %d declared, the rank holds %d", step, landed, expected, held)
				}
				f.DrainGradients()
				if landed, _ := g.Landed(); landed != 0 {
					return fmt.Errorf("step %d: %d landings still counted after the drain", step, landed)
				}
				f.EndStep()
			}
			return nil
		})
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
	}
}

// canonicalGrads lists nn.Block's gradients in the distributed block's State
// order: fused QKV weight and bias, projection, fc1, fc2.
func canonicalGrads(b *nn.Block) []*tensor.Matrix {
	a := b.Attn
	qkv := func(g func(*nn.Linear) *tensor.Matrix) *tensor.Matrix {
		parts := []*tensor.Matrix{g(a.Wq), g(a.Wk), g(a.Wv)}
		out := tensor.New(parts[0].Rows, 3*parts[0].Cols)
		for k, p := range parts {
			out.SetSubMatrix(0, k*p.Cols, p)
		}
		return out
	}
	return []*tensor.Matrix{
		qkv(func(l *nn.Linear) *tensor.Matrix { return l.W.Grad }),
		qkv(func(l *nn.Linear) *tensor.Matrix { return l.B.Grad }),
		a.Wo.W.Grad, a.Wo.B.Grad,
		b.Mlp.Fc1.W.Grad, b.Mlp.Fc1.B.Grad,
		b.Mlp.Fc2.W.Grad, b.Mlp.Fc2.B.Grad,
	}
}
