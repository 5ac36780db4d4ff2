package vit

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// sessionCase is one generated session configuration: a layout pair, a
// model and its data, and the steps trained before and after the re-layout.
type sessionCase struct {
	from, to      parallel.Layout
	ds            *Dataset
	mcfg          ModelConfig
	tc            TrainConfig
	before, after int
}

// drawSession turns generated counts into a configuration: 1 to 4 heads of
// width 1 to 3, 1 or 2 layers, 2 to 4 classes of 4 training samples, images
// of 1 or 4 patches of 1 or 2 pixels a side in 1 to 3 channels, a batch of 1
// to 8, and 1 to 3 steps before and after. The pair is drawn from the
// registered layouts of at most 8 ranks that TrainableErr accepts for that
// model and batch, two different ones wherever there are two.
func drawSession(t testing.TB, from, to, heads, width, layers, classes, image, batch, steps uint8) sessionCase {
	t.Helper()
	dcfg := DataConfig{
		Classes: int(classes)%3 + 2, PatchSize: int(image)%2 + 1, Channels: int(image/2)%3 + 1,
		Train: 4, Test: 1, Noise: 0.3, Seed: uint64(image) + 1,
	}
	dcfg.ImageSize = dcfg.PatchSize * (int(image/6)%2 + 1)
	c := sessionCase{
		ds: NewDataset(dcfg),
		mcfg: ModelConfig{
			PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(), Heads: int(heads)%4 + 1,
			Layers: int(layers)%2 + 1, Classes: dcfg.Classes, Seed: uint64(layers) + 1,
		},
		tc:     TrainConfig{Epochs: 1, BatchSize: int(batch)%8 + 1, LR: 0.003, WeightDecay: 0.05, Seed: uint64(batch) + 1},
		before: int(steps)%3 + 1, after: int(steps/3)%3 + 1,
	}
	c.mcfg.Hidden = c.mcfg.Heads * (int(width)%3 + 1)
	var fits []parallel.Layout
	for _, name := range parallel.Families() {
		layouts, err := parallel.Layouts(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		for l := range layouts {
			if TrainableErr(l, c.tc.BatchSize, c.mcfg) == nil {
				fits = append(fits, l)
			}
		}
	}
	i := int(from) % len(fits)
	c.from, c.to = fits[i], fits[(i+1+int(to)%max(len(fits)-1, 1))%len(fits)]
	return c
}

// checkSession trains the configuration's sessions against the serial model
// on the same batch sequence and holds them to what a layout may not change:
//   - the losses at c.from on a bare cluster, and the logits after c.before
//     steps, are the serial model's within 1e-8;
//   - an empty fault plan, and one whose windows open past the last step,
//     leave the losses, MaxClock and Stats of the bare cluster's run bit for
//     bit;
//   - Relayout onto c.to on one cluster of both layouts' ranks costs collect
//     and restore seconds wherever there is a rank to exchange with, and
//     Relayout back leaves the eval logits bit for bit what they were;
//   - training on at c.to continues the serial curve within 1e-8, ends at
//     its logits within 1e-8 and leaves no buffer checked out;
//   - the model's shape-only twin at c.from runs one forward and backward
//     on phantoms as the real model runs them on a batch: every rank's
//     clock and workspace HighWaterBytes, and the cluster's Stats, equal.
func checkSession(t *testing.T, c sessionCase) {
	t.Helper()
	total, rows := c.before+c.after, make([]int, len(c.ds.Test))
	for i := range rows {
		rows[i] = i
	}
	want, wantMid, wantEnd := serialCurve(c, rows)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s → %s, %+v, batch %d, steps %d+%d: %s", c.from, c.to, c.mcfg, c.tc.BatchSize, c.before, c.after,
			fmt.Sprintf(format, args...))
	}
	near := func(what string, got, want *tensor.Matrix) {
		t.Helper()
		if d := got.MaxAbsDiff(want); !(d <= 1e-8) {
			fail("%s differ from serial by %g", what, d)
		}
	}
	curve := func(l []float64) *tensor.Matrix { return tensor.FromSlice(1, len(l), l) }

	m := dist.Machine{Cost: computeBoundCost()}
	realPass, err := twinPass(c, m, false)
	if err != nil {
		fail("real pass: %v", err)
	}
	switch phPass, err := twinPass(c, m, true); {
	case err != nil:
		fail("shape-only pass: %v", err)
	case !reflect.DeepEqual(phPass, realPass):
		fail("shape-only twin %+v, real model %+v", phPass, realPass)
	}
	bare, err := TrainFaulty(c.from, nil, m, c.ds, c.mcfg, c.tc, total)
	if err != nil {
		fail("bare run: %v", err)
	}
	near(c.from.String()+" losses", curve(bare.Losses), curve(want))
	never := &dist.FaultPlan{
		Ranks:       []dist.RankFault{{Rank: 0, From: total + 10, To: dist.Forever, Factor: 8}},
		Links:       []dist.LinkFault{{Rank: c.from.Ranks - 1, From: total + 10, To: dist.Forever, BetaFactor: 4, ExtraAlpha: 1e-6}},
		Collectives: []dist.CollectiveFault{{Rank: 0, From: total + 10, To: total + 12, Retries: 2, Backoff: 1e-5}},
	}
	for name, fp := range map[string]*dist.FaultPlan{"empty": {}, "never-active": never} {
		got, err := TrainFaulty(c.from, fp, m, c.ds, c.mcfg, c.tc, total)
		switch {
		case err != nil:
			fail("%s plan: %v", name, err)
		case !reflect.DeepEqual(got.Losses, bare.Losses):
			fail("%s plan: losses %v, bare %v", name, got.Losses, bare.Losses)
		case math.Float64bits(got.Seconds) != math.Float64bits(bare.Seconds):
			fail("%s plan: clock %v, bare %v", name, got.Seconds, bare.Seconds)
		case !reflect.DeepEqual(got.Stats, bare.Stats):
			fail("%s plan: traffic %+v, bare %+v", name, got.Stats, bare.Stats)
		}
	}

	cl := dist.New(dist.Config{WorldSize: max(c.from.Ranks, c.to.Ranks)})
	defer cl.Close()
	s, err := NewSession(cl, c.from, c.ds, c.mcfg, c.tc)
	if err != nil {
		fail("%v", err)
	}
	if _, err := s.Train(c.before); err != nil {
		fail("%v", err)
	}
	mid, err := s.EvalLogits(rows)
	if err != nil {
		fail("%v", err)
	}
	near(fmt.Sprintf("%s logits after %d steps", c.from, c.before), mid, wantMid)
	there, collect, restore, err := s.Relayout(cl, c.to)
	if err != nil {
		fail("relayout: %v", err)
	}
	// A 1-rank layout has no buddy to exchange pieces with, and a 1-rank
	// cluster nobody to send them.
	if (c.from.Ranks > 1 && collect <= 0) || (cl.WorldSize() > 1 && restore <= 0) {
		fail("relayout cost not positive: collect %g, restore %g", collect, restore)
	}
	back, _, _, err := there.Relayout(cl, c.from)
	if err != nil {
		fail("relayout back: %v", err)
	}
	if got, err := back.EvalLogits(rows); err != nil {
		fail("%v", err)
	} else if !got.Equal(mid) {
		fail("after a round trip through %s the logits moved by %g", c.to, got.MaxAbsDiff(mid))
	}
	losses, err := there.Train(c.after)
	if err != nil {
		fail("%v", err)
	}
	near(c.to.String()+" losses after the relayout", curve(losses), curve(want[c.before:]))
	requireNoLiveBuffers(t, there, "Relayout+Train")
	end, err := there.EvalLogits(rows)
	if err != nil {
		fail("%v", err)
	}
	near(fmt.Sprintf("%s logits after %d steps", c.to, total), end, wantEnd)
}

// passResult is what a phantom pass must reproduce of a real one, bit for
// bit: every rank's clock and workspace high-water bytes, and the traffic.
type passResult struct {
	Clocks    []float64
	HighWater []int64
	Stats     dist.Stats
}

// twinPass runs one forward and one backward of c's model at c.from on a
// fresh cluster: with phantom false NewDistModel's model on the first
// training batch, with phantom true its shape-only twin (the same
// constructor with a nil rng) on a phantom of that batch, which DistributeBatch slices as it slices
// the real one. The gradient fed back is the cross-entropy's, in a buffer
// checked out as the trainer checks it out.
func twinPass(c sessionCase, m dist.Machine, phantom bool) (passResult, error) {
	idx := make([]int, c.tc.BatchSize)
	for i := range idx {
		idx[i] = i
	}
	x, labels := c.ds.Batch(c.ds.Train, idx)
	if phantom {
		x = tensor.NewPhantom(x.Rows, x.Cols)
	}
	cl := dist.New(dist.Config{WorldSize: c.from.Ranks, Machine: m})
	defer cl.Close()
	res := passResult{Clocks: make([]float64, c.from.Ranks), HighWater: make([]int64, c.from.Ranks)}
	err := cl.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, c.from)
		if err != nil {
			return err
		}
		cfg, rng := c.mcfg, tensor.NewRNG(c.mcfg.Seed) // NewDistModel's draw
		if phantom {
			rng = nil
		}
		model := parallel.NewModel(f, cfg.PatchDim, cfg.SeqLen, cfg.Hidden, cfg.Heads, cfg.Layers, cfg.Classes, cfg.Positional(), rng)
		logits := model.Forward(DistributeBatch(f, x, cfg.SeqLen))
		dl := w.Workspace().GetUninitMatch(logits.Rows, logits.Cols, logits.Phantom())
		nn.CrossEntropyInto(dl, logits, labels)
		model.Backward(dl)
		res.Clocks[w.Rank()], res.HighWater[w.Rank()] = w.Clock(), w.Workspace().Stats().HighWaterBytes
		return nil
	})
	res.Stats = cl.Stats()
	return res, err
}

// serialCurve trains the serial model down the session's batch sequence
// (Session.stepBatch) and returns its losses and its logits on the test
// rows after c.before steps and after all of them.
func serialCurve(c sessionCase, rows []int) (losses []float64, mid, end *tensor.Matrix) {
	model := NewModel(c.mcfg)
	opt := nn.NewAdam(c.tc.LR, c.tc.WeightDecay)
	params := model.Params()
	order := make([]int, len(c.ds.Train))
	spe := len(c.ds.Train) / c.tc.BatchSize
	test, _ := c.ds.Batch(c.ds.Test, rows)
	for step := range c.before + c.after {
		if step == c.before {
			mid = model.Forward(test).Clone()
		}
		epochOrder(order, step/spe, c.tc.Seed)
		start := step % spe * c.tc.BatchSize
		x, labels := c.ds.Batch(c.ds.Train, order[start:start+c.tc.BatchSize])
		loss, dl := nn.CrossEntropy(model.Forward(x), labels)
		losses = append(losses, loss)
		for _, p := range params {
			p.ZeroGrad()
		}
		model.Backward(dl)
		opt.Step(params)
	}
	return losses, mid, model.Forward(test)
}

// sessionSeeds are the draws TestSessionParity runs and FuzzSessionParity
// starts from, as drawSession's arguments.
var sessionSeeds = [][9]uint8{
	{10, 2, 3, 2, 1, 0, 3, 7, 8}, // tesseract [2,2,2] → megatron [4], hidden 12, 2 layers, batch 8, steps 3+3
	{7, 2, 3, 0, 0, 0, 1, 7, 0},  // seqpar [4] → tesseract [2,2,2], hidden 4, 4 heads, batch 8, steps 1+1
	{3, 1, 1, 1, 1, 1, 9, 3, 4},  // optimus [2,2] → seqpar [2], sequences of 4, 3 classes, batch 4, steps 2+2
	{2, 1, 3, 0, 0, 0, 1, 7, 0},  // megatron [4] → optimus [2,2]
	{9, 8, 3, 2, 1, 0, 3, 7, 8},  // tesseract [2,2] → seqpar [4]
	{1, 1, 2, 0, 0, 2, 5, 5, 2},  // megatron [3] → seqpar [1], 3 heads, 4 classes, batch 6 of 16 samples
	{1, 6, 1, 1, 1, 1, 9, 3, 4},  // megatron [2] → tesseract [2,2,2], sequences of 4
	{5, 2, 2, 0, 0, 2, 5, 5, 2},  // tesseract [1,1] → optimus [1,1]
}

// TestSessionParity runs checkSession on the sessionSeeds draws: every
// family at both ends of a pair, tesseract [2,2,2] among them.
func TestSessionParity(t *testing.T) {
	for _, s := range sessionSeeds {
		c := drawSession(t, s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8])
		t.Run(fmt.Sprintf("%s to %s", c.from, c.to), func(t *testing.T) { checkSession(t, c) })
	}
}

// FuzzSessionParity runs checkSession on a generated draw.
func FuzzSessionParity(f *testing.F) {
	s := sessionSeeds[0]
	f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8])
	f.Fuzz(func(t *testing.T, from, to, heads, width, layers, classes, image, batch, steps uint8) {
		checkSession(t, drawSession(t, from, to, heads, width, layers, classes, image, batch, steps))
	})
}

// pinSession runs checkSession on tinyData at a fixed layout pair.
func pinSession(t *testing.T, from, to parallel.Layout, tc TrainConfig, before, after int) {
	t.Helper()
	ds, mcfg := tinyData()
	c := sessionCase{ds: ds, mcfg: mcfg, tc: tc, before: before, after: after}
	var err error
	if c.from, err = parallel.Validate(from); err == nil {
		c.to, err = parallel.Validate(to)
	}
	if err != nil {
		t.Fatal(err)
	}
	checkSession(t, c)
}

// TestCrossFamilyEquivalence: two steps under each of the four family
// layouts, then one under the next, agree with the serial model — the
// paper's interchangeability claim, end to end through one interface.
func TestCrossFamilyEquivalence(t *testing.T) {
	ls := familyLayouts()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	for i, l := range ls {
		pinSession(t, l, ls[(i+1)%len(ls)], tc, 2, 1)
	}
}

// TestRelayoutContinuesLossCurve: over every ordered pair of the four
// family layouts, three steps at one, Relayout onto the other and three
// more continue the serial loss curve.
func TestRelayoutContinuesLossCurve(t *testing.T) {
	for _, from := range familyLayouts() {
		for _, to := range familyLayouts() {
			if from != to {
				pinSession(t, from, to, elasticTC(), 3, 3)
			}
		}
	}
}

// TestZeroPerturbationIdentity: for three families, an empty fault plan
// and one whose windows never overlap the four steps run leave losses,
// clocks and traffic bitwise those of a bare cluster.
func TestZeroPerturbationIdentity(t *testing.T) {
	ls := familyLayouts()
	for i, l := range ls[:3] {
		t.Run(l.String(), func(t *testing.T) { pinSession(t, l, ls[i+1], elasticTC(), 2, 2) })
	}
}
