package tables

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// chainSegment trains `steps` fixed-batch ViT steps at layout l — seeding
// the fresh model and optimiser from ck first when ck is non-nil — and
// returns the resulting replicated checkpoint plus rank 0's last-step
// logits (nil when steps == 0).
func chainSegment(t *testing.T, l parallel.Layout, ck *parallel.Checkpoint, steps int,
	mcfg vit.ModelConfig, tc vit.TrainConfig, x *tensor.Matrix, labels []int) (*parallel.Checkpoint, *tensor.Matrix) {
	t.Helper()
	l, err := parallel.Validate(l)
	if err != nil {
		t.Fatal(err)
	}
	c := dist.New(dist.Config{WorldSize: l.Ranks})
	cks := make([]*parallel.Checkpoint, l.Ranks)
	var logits *tensor.Matrix
	err = c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		model := vit.NewDistModel(f, mcfg)
		opt := nn.NewAdam(tc.LR, tc.WeightDecay)
		if ck != nil {
			if err := parallel.Reshard(f, model, opt, ck); err != nil {
				return err
			}
		}
		if lg := fixedBatchSteps(f, model, opt, steps, mcfg.SeqLen, x, labels); w.Rank() == 0 {
			logits = lg
		}
		out, err := parallel.Collect(f, model, opt)
		cks[w.Rank()] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return cks[0], logits
}

// fixedBatchSteps trains one rank's model for `steps` steps on the same
// batch and returns a copy of the last step's logits (nil when steps == 0).
func fixedBatchSteps(f parallel.Family, model *vit.DistModel, opt *nn.Adam, steps, seqLen int,
	x *tensor.Matrix, labels []int) *tensor.Matrix {
	params := model.Params()
	var logits *tensor.Matrix
	for s := 0; s < steps; s++ {
		lg := model.Forward(vit.DistributeBatch(f, x, seqLen))
		_, dl := nn.CrossEntropy(lg, labels)
		if s == steps-1 {
			logits = lg.Clone()
		}
		for _, pa := range params {
			pa.ZeroGrad()
		}
		model.Backward(dl)
		opt.Step(params)
		f.EndStep()
	}
	return logits
}

// requireBitwise fails unless two checkpoints agree in every slot, every
// moment, and the optimiser step count — bit for bit.
func requireBitwise(t *testing.T, want, got *parallel.Checkpoint, what string) {
	t.Helper()
	if got.Step != want.Step {
		t.Errorf("%s: step count %d became %d", what, want.Step, got.Step)
	}
	if len(got.Slots) != len(want.Slots) {
		t.Fatalf("%s: slot count %d became %d", what, len(want.Slots), len(got.Slots))
	}
	for i := range want.Slots {
		a, b := want.Slots[i], got.Slots[i]
		if !a.Value.Equal(b.Value) {
			t.Errorf("%s: slot %d value drifted by %g", what, i, a.Value.MaxAbsDiff(b.Value))
		}
		if !a.M.Equal(b.M) {
			t.Errorf("%s: slot %d first moment drifted by %g", what, i, a.M.MaxAbsDiff(b.M))
		}
		if !a.V.Equal(b.V) {
			t.Errorf("%s: slot %d second moment drifted by %g", what, i, a.V.MaxAbsDiff(b.V))
		}
	}
}

// TestCheckpointRoundTripAllPairs is the cross-family re-shard property:
// for every ordered (from, to) pair of the default family layouts, a
// checkpoint collected at `from`, re-sharded onto a fresh model at `to`,
// and collected again must reproduce the original bit for bit — the
// canonical form is layout-independent, and staging plus one disjoint
// all-reduce loses nothing.
func TestCheckpointRoundTripAllPairs(t *testing.T) {
	ds, mcfg, tc := elasticFixture()
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	layouts := DefaultFamilyLayouts()
	for _, from := range layouts {
		ck, _ := chainSegment(t, from, nil, 2, mcfg, tc, x, labels)
		for _, to := range layouts {
			t.Run(from.String()+"→"+to.String(), func(t *testing.T) {
				back, _ := chainSegment(t, to, ck, 0, mcfg, tc, x, labels)
				requireBitwise(t, ck, back, from.String()+" via "+to.String())
			})
		}
	}
}

// TestCrossLayoutReshardChain walks a checkpoint through the shrinking
// sequence the elastic path produces — tesseract [2,2,2] → tesseract
// [2,2,1] → megatron [2], two training steps at each stop — and requires
// the logits after every stop to match a serial model trained the same six
// steps within 1e-8: re-sharding does not perturb the trajectory. It then
// carries the first stop's checkpoint, untrained, across every shard count
// the fused QKV slot is cut by — mesh columns, four 1-D ranks, two — and
// back, bit for bit.
func TestCrossLayoutReshardChain(t *testing.T) {
	ds, mcfg, tc := elasticFixture()
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})

	// Serial reference, capturing the logits at steps 2, 4 and 6.
	model := vit.NewModel(mcfg)
	opt := nn.NewAdam(tc.LR, tc.WeightDecay)
	params := model.Params()
	var ref []*tensor.Matrix
	for s := 0; s < 6; s++ {
		lg := model.Forward(x)
		_, dl := nn.CrossEntropy(lg, labels)
		if s%2 == 1 {
			ref = append(ref, lg.Clone())
		}
		for _, pa := range params {
			pa.ZeroGrad()
		}
		model.Backward(dl)
		opt.Step(params)
	}

	chain := []parallel.Layout{
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "tesseract", Q: 2, D: 1},
		{Family: "megatron", Ranks: 2},
	}
	var ck, first *parallel.Checkpoint
	for i, l := range chain {
		var logits *tensor.Matrix
		ck, logits = chainSegment(t, l, ck, 2, mcfg, tc, x, labels)
		if logits == nil {
			t.Fatalf("%s: no logits collected", l)
		}
		if d := logits.MaxAbsDiff(ref[i]); d > 1e-8 || math.IsNaN(d) {
			t.Errorf("%s (steps %d-%d): logits diverged from serial by %g", l, 2*i+1, 2*i+2, d)
		}
		if i == 0 {
			first = ck
		}
	}

	hop := first
	for _, l := range []parallel.Layout{{Family: "megatron", Ranks: 4}, {Family: "seqpar", Ranks: 2}, chain[0]} {
		hop, _ = chainSegment(t, l, hop, 0, mcfg, tc, x, labels)
		requireBitwise(t, first, hop, chain[0].String()+" carried to "+l.String())
	}
}

// TestElasticStudy runs the full table and checks its correctness columns:
// every row must keep the post-reshard loss curve on the uninterrupted
// trajectory, report a positive re-shard cost, and — the study's budget says
// the model no longer fits one rank — stay distributed.
func TestElasticStudy(t *testing.T) {
	points, err := ElasticStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(DefaultFamilyLayouts()) {
		t.Fatalf("%d rows for %d layouts", len(points), len(DefaultFamilyLayouts()))
	}
	for _, p := range points {
		if p.MaxLossDev > 1e-8 {
			t.Errorf("%s → %s: post-reshard loss deviates by %g", p.From, p.To, p.MaxLossDev)
		}
		if p.ReshardRatio <= 0 || math.IsInf(p.ReshardRatio, 0) || math.IsNaN(p.ReshardRatio) {
			t.Errorf("%s → %s: degenerate re-shard ratio %g", p.From, p.To, p.ReshardRatio)
		}
		if p.To.Ranks >= p.From.Ranks || p.To.Ranks < 2 {
			t.Errorf("%s → %s: replan must shrink the layout and keep it distributed", p.From, p.To)
		}
	}
	t.Log("\n" + FormatElastic(points))
}

// TestRestoreReusesMoments walks one session pair the way an elastic run
// does — megatron [4] and seqpar [4] on one cluster, training on one side,
// re-sharding onto the other, and back — and checks what Restore does with an
// optimiser that already holds moments of the shard's shape: it stages into
// that storage (no moment buffer is allocated from the second visit on), and
// the weights and both moments it leaves are, bit for bit, those of restoring
// the same checkpoint into a freshly built model and optimiser, although the
// reused buffers went in holding the previous visit's training state.
func TestRestoreReusesMoments(t *testing.T) {
	ds, mcfg, tc := elasticFixture()
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	layouts := [2]parallel.Layout{{Family: "megatron", Ranks: 4}, {Family: "seqpar", Ranks: 4}}

	type rankState struct {
		fam   parallel.Family
		model *vit.DistModel
		opt   *nn.Adam
	}
	build := func(c *dist.Cluster, l parallel.Layout) []rankState {
		t.Helper()
		st := make([]rankState, 4)
		if err := c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			st[w.Rank()] = rankState{f, vit.NewDistModel(f, mcfg), nn.NewAdam(tc.LR, tc.WeightDecay)}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return st
	}
	c := dist.New(dist.Config{WorldSize: 4})
	sides := [2][]rankState{build(c, layouts[0]), build(c, layouts[1])}

	// storage lists the first element of every moment buffer a side holds.
	storage := func(st []rankState) []*float64 {
		var out []*float64
		for _, s := range st {
			for _, p := range s.model.Params() {
				m, v := s.opt.Moments(p)
				if m == nil || v == nil {
					t.Fatalf("parameter %s has no moments", p.Name)
				}
				out = append(out, &m.Data[0], &v.Data[0])
			}
		}
		return out
	}
	requireSameBits := func(what string, rank int, name string, got, want *tensor.Matrix) {
		t.Helper()
		if !got.SameShape(want) {
			t.Fatalf("%s, rank %d, %s: %dx%d against %dx%d", what, rank, name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Errorf("%s, rank %d, %s[%d]: %x after a reusing restore, %x after a fresh one",
					what, rank, name, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				return
			}
		}
	}

	visited := [2]bool{true, false}
	for hop, from := 0, 0; hop < 4; hop, from = hop+1, 1-from {
		to := 1 - from
		src, dst := sides[from], sides[to]
		var before []*float64
		if visited[to] {
			before = storage(dst)
		}
		cks := make([]*parallel.Checkpoint, 4)
		if err := c.Run(func(w *dist.Worker) error {
			s := src[w.Rank()]
			fixedBatchSteps(s.fam, s.model, s.opt, 2, mcfg.SeqLen, x, labels)
			ck, err := parallel.Collect(s.fam, s.model, s.opt)
			if err != nil {
				return err
			}
			cks[w.Rank()] = ck
			d := dst[w.Rank()]
			return parallel.Restore(d.fam, d.model, d.opt, ck)
		}); err != nil {
			t.Fatal(err)
		}
		what := layouts[from].String() + " → " + layouts[to].String()
		if !visited[to] {
			visited[to] = true
			continue // a first restore adopts fresh buffers: nothing to reuse yet
		}
		for i, p := range storage(dst) {
			if p != before[i] {
				t.Fatalf("%s: moment buffer %d moved: the restore allocated moment storage", what, i)
			}
		}
		fresh := build(dist.New(dist.Config{WorldSize: 4}), layouts[to])
		if err := fresh[0].fam.Worker().Cluster().Run(func(w *dist.Worker) error {
			f := fresh[w.Rank()]
			return parallel.Restore(f.fam, f.model, f.opt, cks[w.Rank()])
		}); err != nil {
			t.Fatal(err)
		}
		for r := range dst {
			gp, wp := dst[r].model.Params(), fresh[r].model.Params()
			for i := range wp {
				gm, gv := dst[r].opt.Moments(gp[i])
				wm, wv := fresh[r].opt.Moments(wp[i])
				requireSameBits(what, r, wp[i].Name+" value", gp[i].Value, wp[i].Value)
				requireSameBits(what, r, wp[i].Name+" first moment", gm, wm)
				requireSameBits(what, r, wp[i].Name+" second moment", gv, wv)
			}
		}
		if got, want := dst[0].opt.StepCount(), fresh[0].opt.StepCount(); got != want {
			t.Errorf("%s: step count %d, a fresh restore gives %d", what, got, want)
		}
	}
}
