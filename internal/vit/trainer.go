package vit

import (
	"fmt"

	"repro/internal/dist"
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

func (c TrainConfig) withDefaults() TrainConfig {
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
	return c
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
func TrainSerial(ds *Dataset, mcfg ModelConfig, tc TrainConfig) History {
	tc = tc.withDefaults()
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
	return hist
}

func evalSerial(model *Model, ds *Dataset, batch int) float64 {
	n := len(ds.Test)
	if n == 0 {
		return 0
	}
	correct := 0
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n // final partial batch: evaluate the tail instead of dropping it
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, labels := ds.Batch(ds.Test, idx)
		logits := model.Forward(x)
		correct += nn.CorrectCount(logits, labels)
	}
	return float64(correct) / float64(n)
}

// TrainLayout trains the same model under any registered tensor-parallel
// family and returns its curve. With the same dataset, seeds and optimiser
// the curve must coincide with TrainSerial's up to floating-point reduction
// order — the Figure 7 claim, now checkable for every family.
func TrainLayout(l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (History, error) {
	tc = tc.withDefaults()
	l, err := parallel.Validate(l)
	if err != nil {
		return History{}, err
	}
	if tc.BatchSize%l.RowShards() != 0 {
		return History{}, fmt.Errorf("vit: batch %d not divisible by %s's %d row shards", tc.BatchSize, l, l.RowShards())
	}
	c := dist.New(dist.Config{WorldSize: l.Ranks})
	hist := History{Setting: l.String()}
	s := mcfg.SeqLen
	err = c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		model := NewDistModel(f, mcfg)
		opt := nn.NewAdam(tc.LR, tc.WeightDecay)
		params := model.Params()
		for epoch := 0; epoch < tc.Epochs; epoch++ {
			order := epochOrder(len(ds.Train), epoch, tc.Seed)
			var lossSum float64
			var correct, seen int
			for start := 0; start+tc.BatchSize <= len(order); start += tc.BatchSize {
				x, labels := ds.Batch(ds.Train, order[start:start+tc.BatchSize])
				logits := model.Forward(DistributeBatch(f, x, s))
				dlogits := w.Workspace().GetUninitMatch(logits.Rows, logits.Cols, logits.Phantom())
				loss := nn.CrossEntropyInto(dlogits, logits, labels)
				lossSum += loss
				correct += nn.CorrectCount(logits, labels)
				seen += len(labels)
				for _, pa := range params {
					pa.ZeroGrad()
				}
				model.Backward(dlogits)
				opt.Step(params)
				f.EndStep() // step boundary: recycle every activation and scratch buffer
			}
			if w.Rank() == 0 {
				steps := len(order) / tc.BatchSize
				hist.Loss = append(hist.Loss, lossSum/float64(steps))
				hist.TrainAcc = append(hist.TrainAcc, float64(correct)/float64(seen))
			}
			acc := evalDist(f, model, ds, tc.BatchSize, s)
			if w.Rank() == 0 {
				hist.TestAcc = append(hist.TestAcc, acc)
			}
		}
		return nil
	})
	if err != nil {
		return History{}, err
	}
	return hist, nil
}

// evalDist computes test accuracy on every rank (the forward pass is
// collective). The final partial batch is padded up to the family's row
// divisibility unit by repeating the first tail sample — per-sample logits
// are independent, so padding rows cannot perturb real rows — and only the
// real labels are counted.
func evalDist(f parallel.Family, model *DistModel, ds *Dataset, batch, s int) float64 {
	n := len(ds.Test)
	if n == 0 {
		return 0
	}
	correct := 0
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		logits := evalForward(f, model, ds, idx, s)
		labels := make([]int, len(idx))
		for i, j := range idx {
			labels[i] = ds.Test[j].Label
		}
		correct += nn.CorrectCount(logits, labels)
		f.EndStep() // eval step boundary: the logits row counts are consumed
	}
	return float64(correct) / float64(n)
}

// evalForward is the trainer's one eval forward: the test rows idx, padded
// up to the family's row divisibility unit by repeating the first sample —
// per-sample logits are independent, so padding rows cannot perturb real
// rows. It returns the replicated logits; rows past len(idx) are padding
// and must be discarded. The caller owns the step boundary (Family.EndStep)
// once it is done with the logits.
func evalForward(f parallel.Family, model *DistModel, ds *Dataset, idx []int, s int) *tensor.Matrix {
	unit := f.RowShards()
	padded := (len(idx) + unit - 1) / unit * unit
	pidx := make([]int, padded)
	copy(pidx, idx)
	for i := len(idx); i < padded; i++ {
		pidx[i] = idx[0] // padding; its predictions are discarded by the caller
	}
	x, _ := ds.Batch(ds.Test, pidx)
	return model.Forward(DistributeBatch(f, x, s))
}
