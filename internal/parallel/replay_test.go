package parallel_test

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	_ "repro/internal/megatron"
	_ "repro/internal/optimus"
	"repro/internal/parallel"
	_ "repro/internal/seqpar"
	"repro/internal/tensor"
	_ "repro/internal/tesseract"
)

// footprintModel divides over every layout below: heads and hidden by 2, 3
// and 4, the batch into whole sequences per row shard of each.
const fpHidden, fpHeads, fpSeqLen, fpBatch = 24, 12, 4, 12

// footprintStacks builds the layout's stack on every rank c runs — phantom,
// or its real twin the way tables.newStack builds one — and returns the
// replay with the stacks it holds, by rank.
func footprintStacks(t *testing.T, c *dist.Cluster, l parallel.Layout, layers int, real bool) (*parallel.Replay, []*parallel.Stack) {
	t.Helper()
	stacks := make([]*parallel.Stack, c.WorldSize())
	rp, err := parallel.NewReplay(c, func(w *dist.Worker) (*parallel.Stack, error) {
		f, err := parallel.New(w, l)
		if err != nil {
			return nil, err
		}
		if !real {
			stacks[w.Rank()] = parallel.NewPhantomStack(f, fpBatch, fpSeqLen, fpHidden, fpHeads, layers)
			return stacks[w.Rank()], nil
		}
		s := &parallel.Stack{Family: f}
		for i := 0; i < layers; i++ {
			s.Blocks = append(s.Blocks, f.NewBlock(fpHidden, fpHeads, fpSeqLen, tensor.NewRNG(uint64(7+i))))
		}
		sl := f.Slice(fpBatch*fpSeqLen, fpHidden)
		s.X = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(100))
		s.DY = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(200))
		stacks[w.Rank()] = s
		return s, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rp, stacks
}

// footprintReplay builds the layout's stack on a full cluster and steps it.
func footprintReplay(t *testing.T, l parallel.Layout, layers int, real, recompute bool) (*parallel.Replay, parallel.StepClocks) {
	t.Helper()
	l, err := parallel.Validate(l)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := footprintStacks(t, dist.New(dist.Config{WorldSize: l.Ranks}), l, layers, real)
	st, err := rp.Step(recompute)
	if err != nil {
		t.Fatal(err)
	}
	return rp, st
}

// TestPhantomFootprintEqualsReal holds the number the planner charges a
// layout to the real thing: a phantom replay's footprint is its real twin's
// on every rank, to the byte, with recompute on and off and one layer or
// two — on the four default layouts and on a mesh no node size aligns with.
// Rank 0 is never lighter than a peer, which is what lets a solo replay
// report the cluster's largest.
func TestPhantomFootprintEqualsReal(t *testing.T) {
	layouts := []parallel.Layout{
		{Family: "megatron", Ranks: 4},
		{Family: "seqpar", Ranks: 4},
		{Family: "optimus", Q: 2},
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "optimus", Q: 3},
	}
	for _, l := range layouts {
		for _, recompute := range []bool{true, false} {
			for _, layers := range []int{1, 2} {
				name := fmt.Sprintf("%s, recompute %v, %d layers", l, recompute, layers)
				ph, phStep := footprintReplay(t, l, layers, false, recompute)
				re, reStep := footprintReplay(t, l, layers, true, recompute)
				phHeld, reHeld := ph.Held(), re.Held()
				for r := range phHeld {
					if phHeld[r] <= 0 || phHeld[r] != reHeld[r] {
						t.Errorf("%s: rank %d holds %d B as a phantom, %d B for real", name, r, phHeld[r], reHeld[r])
					}
					if phHeld[r] > phHeld[0] {
						t.Errorf("%s: rank %d holds %d B, more than rank 0's %d", name, r, phHeld[r], phHeld[0])
					}
				}
				if phStep.MemoryBytes != phHeld[0] || reStep.MemoryBytes != phStep.MemoryBytes {
					t.Errorf("%s: step reports %d B (real %d), rank 0 holds %d", name, phStep.MemoryBytes, reStep.MemoryBytes, phHeld[0])
				}
			}
		}
	}
}

// TestRecomputeBoundaryDropsFirstForward pins where the step boundaries sit:
// checkpointing releases the first forward's activations before the
// recompute forward checks out its own, so a recomputed step never holds
// more than one that keeps its activations — and stepping a replay twice
// holds what stepping it once does.
func TestRecomputeBoundaryDropsFirstForward(t *testing.T) {
	for _, l := range []parallel.Layout{{Family: "megatron", Ranks: 4}, {Family: "tesseract", Q: 2, D: 2}} {
		rp, with := footprintReplay(t, l, 2, false, true)
		_, without := footprintReplay(t, l, 2, false, false)
		if with.MemoryBytes > without.MemoryBytes {
			t.Errorf("%s: %d B with recompute, %d B without — the first forward was counted twice", l, with.MemoryBytes, without.MemoryBytes)
		}
		again, err := rp.Step(true)
		if err != nil {
			t.Fatal(err)
		}
		if again != with {
			t.Errorf("%s: second step %+v, first %+v", l, again, with)
		}
	}
}
