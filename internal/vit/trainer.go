package vit

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TrainConfig controls a Figure 7 training run. The paper uses Adam with
// learning rate 0.003 and weight decay 0.3 for 300 epochs on ImageNet-100;
// our synthetic task converges in a handful of epochs, so the defaults are
// scaled down while keeping the optimiser settings.
type TrainConfig struct {
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	Seed        uint64
}

// withDefaults fills the zero fields and rejects optimiser settings no run
// can honour: a learning rate or weight decay that is negative or not finite
// trains NaN weights and reports them as a curve. It is the one place both
// happen — NewSession and TrainSerial call it, so every trainer, the step
// bencher and the serving runtime inherit the check.
func (c TrainConfig) withDefaults() (TrainConfig, error) {
	if !(c.LR >= 0) || math.IsInf(c.LR, 1) {
		return c, fmt.Errorf("vit: learning rate %v: want a finite value above 0 (0 means the default)", c.LR)
	}
	if !(c.WeightDecay >= 0) || math.IsInf(c.WeightDecay, 1) {
		return c, fmt.Errorf("vit: weight decay %v: want a finite value, 0 or above", c.WeightDecay)
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.LR == 0 {
		c.LR = 0.003
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c, nil
}

// Check reports what NewSession and TrainSerial would reject in c, so a front
// end can refuse it before any training starts.
func (c TrainConfig) Check() error {
	_, err := c.withDefaults()
	return err
}

// History records one curve of Figure 7.
type History struct {
	Setting  string
	Loss     []float64 // mean training loss per epoch
	TrainAcc []float64
	TestAcc  []float64
}

// epochOrder returns the deterministic sample order for one epoch; serial
// and distributed runs share it so their curves are directly comparable.
func epochOrder(n int, epoch int, seed uint64) []int {
	rng := tensor.NewRNG(seed + uint64(epoch)*1000003)
	return rng.Perm(n)
}

// TrainSerial trains the reference model and returns its curve.
func TrainSerial(ds *Dataset, mcfg ModelConfig, tc TrainConfig) (History, error) {
	tc, err := tc.withDefaults()
	if err != nil {
		return History{}, err
	}
	model := NewModel(mcfg)
	opt := nn.NewAdam(tc.LR, tc.WeightDecay)
	params := model.Params()
	hist := History{Setting: "serial"}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		order := epochOrder(len(ds.Train), epoch, tc.Seed)
		var lossSum float64
		var correct, seen int
		for start := 0; start+tc.BatchSize <= len(order); start += tc.BatchSize {
			x, labels := ds.Batch(ds.Train, order[start:start+tc.BatchSize])
			logits := model.Forward(x)
			loss, dlogits := nn.CrossEntropy(logits, labels)
			lossSum += loss
			correct += nn.CorrectCount(logits, labels)
			seen += len(labels)
			for _, p := range params {
				p.ZeroGrad()
			}
			model.Backward(dlogits)
			opt.Step(params)
		}
		steps := len(order) / tc.BatchSize
		hist.Loss = append(hist.Loss, lossSum/float64(steps))
		hist.TrainAcc = append(hist.TrainAcc, float64(correct)/float64(seen))
		hist.TestAcc = append(hist.TestAcc, evalSerial(model, ds, tc.BatchSize))
	}
	return hist, nil
}

// testAccuracy scores the whole test split in batches of the given size —
// the final partial batch included, not dropped — through forward, which
// returns at least one logits row per requested test index.
func testAccuracy(ds *Dataset, batch int, forward func(idx []int) (*tensor.Matrix, error)) (float64, error) {
	n := len(ds.Test)
	if n == 0 {
		return 0, nil
	}
	correct := 0
	for start := 0; start < n; start += batch {
		idx := make([]int, min(batch, n-start))
		labels := make([]int, len(idx))
		for i := range idx {
			idx[i] = start + i
			labels[i] = ds.Test[start+i].Label
		}
		logits, err := forward(idx)
		if err != nil {
			return 0, err
		}
		correct += nn.CorrectCount(logits, labels)
	}
	return float64(correct) / float64(n), nil
}

func evalSerial(model *Model, ds *Dataset, batch int) float64 {
	acc, _ := testAccuracy(ds, batch, func(idx []int) (*tensor.Matrix, error) {
		x, _ := ds.Batch(ds.Test, idx)
		return model.Forward(x), nil
	}) // the serial forward cannot fail
	return acc
}

// TrainLayout trains the same model under any registered tensor-parallel
// family and returns its curve. With the same dataset, seeds and optimiser
// the curve must coincide with TrainSerial's up to floating-point reduction
// order — the Figure 7 claim, now checkable for every family. It is a
// session trained one epoch at a time and evaluated in between, so its
// Loss[e] is the in-order mean of TrainLayoutSteps' losses over epoch e.
func TrainLayout(l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (History, error) {
	s, err := NewSession(nil, l, ds, mcfg, tc)
	if err != nil {
		return History{}, err
	}
	if s.batchErr != nil {
		return History{}, s.batchErr
	}
	hist := History{Setting: s.l.String()}
	losses := make([]float64, len(ds.Train)/s.tc.BatchSize)
	for epoch := 0; epoch < s.tc.Epochs; epoch++ {
		correct := 0
		if err := s.train(losses, &correct); err != nil {
			return History{}, err
		}
		var lossSum float64
		for _, loss := range losses {
			lossSum += loss
		}
		acc, err := testAccuracy(ds, s.tc.BatchSize, s.EvalLogits)
		if err != nil {
			return History{}, err
		}
		hist.Loss = append(hist.Loss, lossSum/float64(len(losses)))
		hist.TrainAcc = append(hist.TrainAcc, float64(correct)/float64(len(losses)*s.tc.BatchSize))
		hist.TestAcc = append(hist.TestAcc, acc)
	}
	return hist, nil
}
