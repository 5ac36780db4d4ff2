package parallel_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// landedOnce holds every parameter to one landing per backward pass: a
// landing sums in place, so a second would sum a sum.
func landedOnce(f parallel.Family, held int) error {
	if landed, expected := parallel.GradsOf(f).Landed(); landed != held || expected != held {
		return fmt.Errorf("%d parameters landed, %d declared, the rank holds %d", landed, expected, held)
	}
	return nil
}

// FuzzBlockParity runs the parity harness (testutil.Parity) with every
// module on a generated layout of testutil.ParityLayouts at generated dims,
// each parameter landing once. The seeds are the per-family pins' shapes.
func FuzzBlockParity(f *testing.F) {
	layouts := testutil.ParityLayouts(f)
	at := func(name string) uint8 {
		for i, l := range layouts {
			if l.String() == name {
				return uint8(i)
			}
		}
		f.Fatalf("no layout %q", name)
		return 0
	}
	// Each count below is the drawn size minus one.
	// h 8, 2 heads, sequences of 2, 8 rows, linear 8 → 12:
	f.Add(at("tesseract [1,1]"), uint8(1), uint8(3), uint8(1), uint8(3), uint8(7), uint8(11), uint64(1))
	f.Add(at("tesseract [2,2]"), uint8(0), uint8(3), uint8(1), uint8(1), uint8(3), uint8(5), uint64(2))
	f.Add(at("tesseract [2,2,2]"), uint8(0), uint8(3), uint8(1), uint8(0), uint8(3), uint8(5), uint64(3))
	f.Add(at("optimus [1,1]"), uint8(1), uint8(3), uint8(1), uint8(3), uint8(7), uint8(11), uint64(4))
	f.Add(at("optimus [2,2]"), uint8(0), uint8(3), uint8(1), uint8(1), uint8(3), uint8(5), uint64(5))
	// h 8, 4 heads, sequences of 2, 8 rows, linear 8 → 12:
	f.Add(at("megatron [1]"), uint8(3), uint8(1), uint8(1), uint8(3), uint8(7), uint8(11), uint64(6))
	f.Add(at("megatron [2]"), uint8(1), uint8(1), uint8(1), uint8(3), uint8(3), uint8(5), uint64(7))
	f.Add(at("megatron [4]"), uint8(0), uint8(1), uint8(1), uint8(3), uint8(1), uint8(2), uint64(8))
	f.Add(at("seqpar [1]"), uint8(3), uint8(1), uint8(1), uint8(3), uint8(7), uint8(11), uint64(9))
	f.Add(at("seqpar [2]"), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(5), uint64(10))
	f.Add(at("seqpar [4]"), uint8(0), uint8(1), uint8(1), uint8(0), uint8(1), uint8(2), uint64(11))
	// h 12, 3 heads, 36 rows, linear 12 → 12:
	f.Add(at("tesseract [3,3,3]"), uint8(0), uint8(3), uint8(0), uint8(3), uint8(3), uint8(3), uint64(12))
	f.Add(at("seqpar [3]"), uint8(0), uint8(3), uint8(3), uint8(2), uint8(3), uint8(3), uint64(13))
	f.Fuzz(func(t *testing.T, layout, headsPerShard, headWidth, seqLen, seqsPerShard, in, out uint8, seed uint64) {
		l := layouts[int(layout)%len(layouts)]
		dims := testutil.DrawDims(l, headsPerShard, headWidth, seqLen, seqsPerShard, in, out)
		testutil.Parity{Dims: dims, Seed: seed, Landed: landedOnce}.Check(t, l)
	})
}

// TestBlockParityEveryLayout runs the parity harness with every module on
// every layout testutil.ParityLayouts lists, at two heads per column shard
// of width 2, sequences of 2, two per row shard, and a linear 2 → 3 per
// column shard, each parameter landing once.
func TestBlockParityEveryLayout(t *testing.T) {
	for i, l := range testutil.ParityLayouts(t) {
		t.Run(l.String(), func(t *testing.T) {
			dims := testutil.DrawDims(l, 1, 1, 1, 1, 1, 2)
			testutil.Parity{Dims: dims, Seed: uint64(i + 1), Landed: landedOnce}.Check(t, l)
		})
	}
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
