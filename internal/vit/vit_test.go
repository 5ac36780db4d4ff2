package vit

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tesseract"
	"repro/internal/testutil"
)

func tinyData() (*Dataset, ModelConfig) {
	dcfg := DataConfig{
		Classes: 4, ImageSize: 8, Channels: 3, PatchSize: 4,
		Train: 8, Test: 4, Noise: 0.3, Seed: 11,
	}
	ds := NewDataset(dcfg)
	mcfg := ModelConfig{
		PatchDim: dcfg.PatchDim(), // 48
		SeqLen:   dcfg.Patches(),  // 4
		Hidden:   16,
		Heads:    4,
		Layers:   2,
		Classes:  dcfg.Classes,
		Seed:     3,
	}
	return ds, mcfg
}

// TestPatchShapeMatchesSamples: Patches and PatchDim describe the samples
// NewDataset builds, for a zero config (every default: 64 patches of 48) as
// for a set one. On the zero config both used to skip the defaults, so
// PatchDim returned 0 and Patches divided by zero.
func TestPatchShapeMatchesSamples(t *testing.T) {
	for _, cfg := range []DataConfig{
		{Classes: 2, Train: 1, Test: 1},
		{Classes: 2, ImageSize: 8, Channels: 1, PatchSize: 2, Train: 1, Test: 1},
	} {
		p := NewDataset(cfg).Train[0].Patches
		if cfg.Patches() != p.Rows || cfg.PatchDim() != p.Cols {
			t.Errorf("%+v: Patches %d × PatchDim %d, samples are %d×%d", cfg, cfg.Patches(), cfg.PatchDim(), p.Rows, p.Cols)
		}
	}
}

func TestDatasetShapes(t *testing.T) {
	ds, _ := tinyData()
	if len(ds.Train) != 4*8 || len(ds.Test) != 4*4 {
		t.Fatalf("dataset sizes train=%d test=%d", len(ds.Train), len(ds.Test))
	}
	s := ds.Config.Patches()
	if s != 4 || ds.Config.PatchDim() != 48 {
		t.Fatalf("patches=%d patchdim=%d", s, ds.Config.PatchDim())
	}
	for _, smp := range ds.Train[:3] {
		if smp.Patches.Rows != s || smp.Patches.Cols != 48 {
			t.Fatalf("sample shape %dx%d", smp.Patches.Rows, smp.Patches.Cols)
		}
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a, _ := tinyData()
	b, _ := tinyData()
	if a.Train[5].Label != b.Train[5].Label {
		t.Fatal("labels differ across identical seeds")
	}
	if a.Train[5].Patches.MaxAbsDiff(b.Train[5].Patches) != 0 {
		t.Fatal("pixels differ across identical seeds")
	}
}

func TestDatasetClassesAreSeparable(t *testing.T) {
	// A nearest-prototype classifier on the noiseless class means must
	// beat chance comfortably, otherwise Figure 7 training is meaningless.
	ds, _ := tinyData()
	protos := make([]*tensor.Matrix, ds.Config.Classes)
	counts := make([]int, ds.Config.Classes)
	for _, smp := range ds.Train {
		if protos[smp.Label] == nil {
			protos[smp.Label] = tensor.New(smp.Patches.Rows, smp.Patches.Cols)
		}
		tensor.AddInPlace(protos[smp.Label], smp.Patches)
		counts[smp.Label]++
	}
	for c := range protos {
		tensor.ScaleInPlace(protos[c], 1/float64(counts[c]))
	}
	correct := 0
	for _, smp := range ds.Test {
		best, arg := math.Inf(1), -1
		for c, proto := range protos {
			d := tensor.Frobenius(tensor.Sub(smp.Patches, proto))
			if d < best {
				best, arg = d, c
			}
		}
		if arg == smp.Label {
			correct++
		}
	}
	acc := float64(correct) / float64(len(ds.Test))
	if acc < 0.7 {
		t.Fatalf("prototype classifier accuracy %.2f — dataset not separable", acc)
	}
}

func TestBatchLayout(t *testing.T) {
	ds, _ := tinyData()
	x, labels := ds.Batch(ds.Train, []int{0, 9})
	if x.Rows != 2*ds.Config.Patches() || x.Cols != ds.Config.PatchDim() {
		t.Fatalf("batch shape %dx%d", x.Rows, x.Cols)
	}
	if labels[0] != ds.Train[0].Label || labels[1] != ds.Train[9].Label {
		t.Fatal("batch labels wrong")
	}
	if x.SubMatrix(4, 0, 4, 48).MaxAbsDiff(ds.Train[9].Patches) != 0 {
		t.Fatal("second sequence should be sample 9")
	}
}

func TestSerialForwardShapesAndBackward(t *testing.T) {
	ds, mcfg := tinyData()
	model := NewModel(mcfg)
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3})
	logits := model.Forward(x)
	if logits.Rows != 4 || logits.Cols != mcfg.Classes {
		t.Fatalf("logits shape %dx%d", logits.Rows, logits.Cols)
	}
	loss, dlogits := nn.CrossEntropy(logits, labels)
	if loss <= 0 {
		t.Fatalf("initial loss %g", loss)
	}
	for _, p := range model.Params() {
		p.ZeroGrad()
	}
	model.Backward(dlogits)
	// Every parameter must receive some gradient signal.
	var zero int
	for _, p := range model.Params() {
		if tensor.Frobenius(p.Grad) == 0 {
			zero++
		}
	}
	if zero > 0 {
		t.Fatalf("%d parameters got zero gradient", zero)
	}
}

func TestMeanPoolRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(5)
	h := tensor.RandomMatrix(8, 6, rng) // 2 sequences of 4
	pooled := meanPool(h, 4)
	if pooled.Rows != 2 {
		t.Fatalf("pooled rows %d", pooled.Rows)
	}
	var want float64
	for tk := 0; tk < 4; tk++ {
		want += h.At(tk, 0)
	}
	want /= 4
	if math.Abs(pooled.At(0, 0)-want) > 1e-12 {
		t.Fatalf("pooled value %g want %g", pooled.At(0, 0), want)
	}
	// Backward: d(pooled)/dh is uniform 1/s.
	back := meanPoolBackward(pooled, 4)
	if back.Rows != 8 || math.Abs(back.At(3, 0)-pooled.At(0, 0)/4) > 1e-12 {
		t.Fatal("meanPoolBackward wrong")
	}
}

func TestDistForwardMatchesSerial(t *testing.T) {
	ds, mcfg := tinyData()
	serial := NewModel(mcfg)
	x, _ := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	want := serial.Forward(x)

	for _, shape := range []struct{ q, d int }{{2, 1}, {2, 2}} {
		world := shape.q * shape.q * shape.d
		results := testutil.NewCollector()
		testutil.Run(t, world, func(w *dist.Worker) error {
			f := tesseract.NewFamily(w, parallel.Layout{Family: "tesseract", Q: shape.q, D: shape.d, Ranks: world})
			model := NewDistModel(f, mcfg)
			logits := model.Forward(DistributeBatch(f, x, mcfg.SeqLen))
			results.Put(w.Rank(), logits)
			return nil
		})
		for r := 0; r < world; r++ {
			testutil.CheckClose(t, "logits", results.Get(r), want, 1e-8)
		}
	}
}

func TestDistBackwardMatchesSerialGrads(t *testing.T) {
	ds, mcfg := tinyData()
	serial := NewModel(mcfg)
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	logits := serial.Forward(x)
	_, dlogits := nn.CrossEntropy(logits, labels)
	for _, p := range serial.Params() {
		p.ZeroGrad()
	}
	serial.Backward(dlogits)

	headGrads := testutil.NewCollector()
	testutil.Run(t, 8, func(w *dist.Worker) error {
		f := tesseract.NewFamily(w, parallel.Layout{Family: "tesseract", Q: 2, D: 2, Ranks: 8})
		model := NewDistModel(f, mcfg)
		lg := model.Forward(DistributeBatch(f, x, mcfg.SeqLen))
		_, dl := nn.CrossEntropy(lg, labels)
		for _, pa := range model.Params() {
			pa.ZeroGrad()
		}
		model.Backward(dl)
		headGrads.Put(w.Rank(), model.Head.W.Grad)
		return nil
	})
	for r := 0; r < 8; r++ {
		testutil.CheckClose(t, "head dW", headGrads.Get(r), serial.Head.W.Grad, 1e-8)
	}
}

func TestFigure7CurvesCoincide(t *testing.T) {
	// The paper's Figure 7: the serial, [2,2,1] and [2,2,2] training curves
	// are indistinguishable because Tesseract introduces no approximation.
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 2, BatchSize: 8, LR: 0.003, WeightDecay: 0.3, Seed: 5}
	serial, err := TrainSerial(ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct{ q, d int }{{2, 1}, {2, 2}} {
		hist, err := TrainLayout(parallel.Layout{Family: "tesseract", Q: shape.q, D: shape.d}, ds, mcfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		for e := range serial.Loss {
			if math.Abs(hist.Loss[e]-serial.Loss[e]) > 1e-6 {
				t.Fatalf("%s epoch %d loss %g vs serial %g", hist.Setting, e, hist.Loss[e], serial.Loss[e])
			}
			if hist.TrainAcc[e] != serial.TrainAcc[e] {
				t.Fatalf("%s epoch %d train acc %g vs serial %g", hist.Setting, e, hist.TrainAcc[e], serial.TrainAcc[e])
			}
			if hist.TestAcc[e] != serial.TestAcc[e] {
				t.Fatalf("%s epoch %d test acc %g vs serial %g", hist.Setting, e, hist.TestAcc[e], serial.TestAcc[e])
			}
		}
	}
}

func TestTrainingLearns(t *testing.T) {
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 6, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	hist, err := TrainSerial(ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.Loss[0], hist.Loss[len(hist.Loss)-1]
	if last >= first {
		t.Fatalf("loss did not fall: %g -> %g", first, last)
	}
	if hist.TestAcc[len(hist.TestAcc)-1] < 0.5 {
		t.Fatalf("test accuracy %.2f too low after training (chance is 0.25)", hist.TestAcc[len(hist.TestAcc)-1])
	}
}

func TestPositionalEncodingProperties(t *testing.T) {
	cfg := ModelConfig{SeqLen: 8, Hidden: 16}
	pos := cfg.Positional()
	if pos.Rows != 8 || pos.Cols != 16 {
		t.Fatalf("positional shape %dx%d", pos.Rows, pos.Cols)
	}
	// Position 0: sin(0)=0 on even dims, cos(0)=1 on odd dims.
	for j := 0; j < 16; j += 2 {
		if pos.At(0, j) != 0 || pos.At(0, j+1) != 1 {
			t.Fatalf("position 0 encoding wrong at dim %d", j)
		}
	}
	// Distinct positions get distinct encodings.
	if pos.SubMatrix(1, 0, 1, 16).MaxAbsDiff(pos.SubMatrix(2, 0, 1, 16)) == 0 {
		t.Fatal("positions 1 and 2 identical")
	}
}
