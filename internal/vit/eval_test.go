package vit

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
)

// raggedData builds a dataset whose test set (12 samples) does not divide
// common batch sizes, exposing the dropped-tail bug.
func raggedData() (*Dataset, ModelConfig) {
	dcfg := DataConfig{
		Classes: 4, ImageSize: 8, Channels: 3, PatchSize: 4,
		Train: 8, Test: 3, Noise: 0.3, Seed: 11,
	}
	ds := NewDataset(dcfg)
	mcfg := ModelConfig{
		PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(),
		// Seed 2 gives the untrained model 7/12 on this test set, so a
		// dropped or padded-in tail visibly shifts the score.
		Hidden: 16, Heads: 4, Layers: 2, Classes: dcfg.Classes, Seed: 2,
	}
	return ds, mcfg
}

// evalReference counts test-set accuracy one sample at a time — trivially
// covering every sample — as the oracle for the batched eval paths.
func evalReference(model *Model, ds *Dataset) float64 {
	correct := 0
	for i := range ds.Test {
		x, labels := ds.Batch(ds.Test, []int{i})
		correct += nn.CorrectCount(model.Forward(x), labels)
	}
	return float64(correct) / float64(len(ds.Test))
}

// TestEvalSerialCoversTail is the dropped-tail regression: with 12 test
// samples and batch 8 the old evalSerial scored only the first 8, and with
// a batch larger than the test set it scored nothing and returned 0.
// Per-sample logits are independent, so every batch size must give the
// reference accuracy exactly.
func TestEvalSerialCoversTail(t *testing.T) {
	ds, mcfg := raggedData()
	model := NewModel(mcfg)
	want := evalReference(model, ds)
	if want == 0 {
		t.Fatal("reference accuracy is 0 — the oracle cannot distinguish the bug")
	}
	for _, batch := range []int{1, 4, 8, 12, 16, 100} {
		if got := evalSerial(model, ds, batch); got != want {
			t.Fatalf("evalSerial(batch=%d) = %g, want %g — test-set tail dropped", batch, got, want)
		}
	}
}

// TestEvalDistCoversTail checks the distributed eval pads the final partial
// batch to mesh divisibility, counts only real rows, and agrees exactly
// with the serial reference on [2,2,1] and [2,2,2] meshes — including a
// batch larger than the whole test set (the old code returned 0). Every
// rank's replicated logits are scored, and so is the accuracy TrainLayout
// records.
func TestEvalDistCoversTail(t *testing.T) {
	ds, mcfg := raggedData()
	want := evalReference(NewModel(mcfg), ds)
	n := len(ds.Test)
	for _, d := range []int{1, 2} {
		for _, batch := range []int{4, 8, 16} {
			l := parallel.Layout{Family: "tesseract", Q: 2, D: d}
			s, err := NewSession(nil, l, ds, mcfg, TrainConfig{BatchSize: batch})
			if err != nil {
				t.Fatal(err)
			}
			accs := make([]float64, s.l.Ranks)
			err = s.c.Run(func(w *dist.Worker) error {
				correct := 0
				for start := 0; start < n; start += batch {
					var idx, labels []int
					for i := start; i < min(start+batch, n); i++ {
						idx, labels = append(idx, i), append(labels, ds.Test[i].Label)
					}
					correct += nn.CorrectCount(s.evalForward(w, idx), labels)
					s.fams[w.Rank()].EndStep()
				}
				accs[w.Rank()] = float64(correct) / float64(n)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, got := range accs {
				if got != want {
					t.Fatalf("%s batch=%d rank %d: eval accuracy = %g, want %g", l, batch, r, got, want)
				}
			}
			if got, err := testAccuracy(ds, batch, s.EvalLogits); err != nil || got != want {
				t.Fatalf("%s batch=%d: testAccuracy over EvalLogits = %g, %v, want %g", l, batch, got, err, want)
			}
		}
	}
}

// TestHistoryAccuraciesAreExactCounts replays one serial epoch by hand and
// checks the recorded train accuracy is the exact integer count ratio — the
// truncating int(Accuracy·n) accumulation understated it for counts like 29
// of 100.
func TestHistoryAccuraciesAreExactCounts(t *testing.T) {
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	hist, err := TrainSerial(ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}

	model := NewModel(mcfg)
	opt := nn.NewAdam(tc.LR, tc.WeightDecay)
	params := model.Params()
	order := make([]int, len(ds.Train))
	epochOrder(order, 0, tc.Seed)
	var correct, seen int
	for start := 0; start+tc.BatchSize <= len(order); start += tc.BatchSize {
		x, labels := ds.Batch(ds.Train, order[start:start+tc.BatchSize])
		logits := model.Forward(x)
		correct += nn.CorrectCount(logits, labels)
		seen += len(labels)
		_, dlogits := nn.CrossEntropy(logits, labels)
		for _, p := range params {
			p.ZeroGrad()
		}
		model.Backward(dlogits)
		opt.Step(params)
	}
	if want := float64(correct) / float64(seen); hist.TrainAcc[0] != want {
		t.Fatalf("recorded train accuracy %g is not the exact count ratio %g", hist.TrainAcc[0], want)
	}
	if hist.TestAcc[0] != evalSerial(model, ds, tc.BatchSize) {
		t.Fatal("recorded test accuracy differs from a direct eval of the trained model")
	}
}
