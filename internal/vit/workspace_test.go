package vit

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// tess22 is the [2,2,2] layout the workspace tests exercise.
var tess22 = parallel.Layout{Family: "tesseract", Q: 2, D: 2}

// trainSteps drives n steps of the full distributed ViT through a
// StepBencher with pooling on or off and returns rank 0's final parameter
// values, deep-copied.
func trainSteps(t *testing.T, pooling bool, n int) []*tensor.Matrix {
	t.Helper()
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	sb, err := NewStepBencher(tess22, ds, mcfg, tc, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = sb.c.Run(func(w *dist.Worker) error {
		w.Workspace().SetPooling(pooling)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Steps(n); err != nil {
		t.Fatal(err)
	}
	var out []*tensor.Matrix
	for _, pa := range sb.Model(0).Params() {
		out = append(out, pa.Value.Clone())
	}
	return out
}

// TestPooledTrainingBitwiseEqualsAllocating trains the whole distributed
// ViT — embedding, encoder stack, pooling, head, Adam — for several steps
// with and without workspace recycling and requires bit-identical final
// parameters: the end-to-end version of the block-level property.
func TestPooledTrainingBitwiseEqualsAllocating(t *testing.T) {
	pooled := trainSteps(t, true, 4)
	plain := trainSteps(t, false, 4)
	if len(pooled) != len(plain) {
		t.Fatalf("parameter count mismatch: %d vs %d", len(pooled), len(plain))
	}
	for i := range pooled {
		if !pooled[i].Equal(plain[i]) {
			t.Fatalf("parameter %d diverged bitwise between pooled and allocating training", i)
		}
	}
}

// TestTrainingWorkspaceHighWaterFlat asserts the ViT training step reaches
// an allocation fixed point: across steps 2…5 no worker's pool misses or
// high-water mark move, and nothing stays checked out past the step
// boundary.
func TestTrainingWorkspaceHighWaterFlat(t *testing.T) {
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	sb, err := NewStepBencher(tess22, ds, mcfg, tc, 2)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sb.WorkspaceStats()
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Steps(3); err != nil {
		t.Fatal(err)
	}
	after, err := sb.WorkspaceStats()
	if err != nil {
		t.Fatal(err)
	}
	for r := range warm {
		if after[r].Allocs != warm[r].Allocs {
			t.Fatalf("rank %d: steady-state steps allocated (%d -> %d pool misses)", r, warm[r].Allocs, after[r].Allocs)
		}
		if after[r].HighWater != warm[r].HighWater {
			t.Fatalf("rank %d: high-water mark moved (%d -> %d)", r, warm[r].HighWater, after[r].HighWater)
		}
		if after[r].Live != 0 {
			t.Fatalf("rank %d: %d buffers leaked past the step boundary", r, after[r].Live)
		}
	}
}

// TestWorkspaceHoldsWhatThePlannerCharges: after three warm steps every
// rank's pool owns at most 1.2× the HighWaterBytes the planner charges it.
// It holds because the pool keys real buffers by size and SUMMA's panels and
// partials share one transient store per rank, so no weight-shaped panel
// keeps a buffer of its own.
func TestWorkspaceHoldsWhatThePlannerCharges(t *testing.T) {
	const bound = 1.2
	for _, c := range []struct {
		layout                      parallel.Layout
		image, hidden, heads, batch int
	}{
		{tess22, 8, 16, 4, 8},
		{tess22, 8, 64, 4, 8},
		{tess22, 16, 256, 8, 16},
		{parallel.Layout{Family: "optimus", Q: 4}, 8, 64, 4, 16},
		{parallel.Layout{Family: "megatron", Ranks: 4}, 8, 64, 4, 8},
		{parallel.Layout{Family: "tesseract", Q: 1, D: 1}, 16, 256, 8, 16},
	} {
		dcfg := DataConfig{Classes: 4, ImageSize: c.image, Channels: 3, PatchSize: 4, Train: 8, Test: 4, Seed: 11}
		mcfg := ModelConfig{
			PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(),
			Hidden: c.hidden, Heads: c.heads, Layers: 2, Classes: dcfg.Classes, Seed: 3,
		}
		tc := TrainConfig{Epochs: 1, BatchSize: c.batch, LR: 0.003, WeightDecay: 0.05, Seed: 5}
		sb, err := NewStepBencher(c.layout, NewDataset(dcfg), mcfg, tc, 3)
		if err != nil {
			t.Fatalf("%s hidden %d: %v", c.layout, c.hidden, err)
		}
		stats, err := sb.WorkspaceStats()
		if err != nil {
			t.Fatal(err)
		}
		for r, st := range stats {
			ratio := float64(st.HeldBytes) / float64(st.HighWaterBytes)
			if r == 0 {
				t.Logf("%s hidden %d: rank 0 holds %d B against %d B charged (%.2f×)", c.layout, c.hidden, st.HeldBytes, st.HighWaterBytes, ratio)
			}
			if ratio > bound {
				t.Errorf("%s hidden %d rank %d: the pool holds %d B, %.2f× the %d B charged; bound %.1f×",
					c.layout, c.hidden, r, st.HeldBytes, ratio, st.HighWaterBytes, bound)
			}
		}
		sb.Cluster().Close()
	}
}
