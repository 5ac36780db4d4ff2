package vit

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/optimus"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tesseract"
)

// elasticAlgos mirrors tables.DefaultAlgos; vit tests cannot import tables
// (tables imports vit).
func elasticAlgos() []plan.Algo {
	return []plan.Algo{tesseract.PlanAlgo(), optimus.PlanAlgo(), megatron.PlanAlgo()}
}

func elasticTC() TrainConfig {
	return TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 21}
}

// elasticTopology sets the per-rank memory budget just below what one rank
// would need for the whole model — the usual reason an elastic system cannot
// collapse onto a single survivor, and the knob that makes the replan keep a
// multi-rank layout.
func elasticTopology(mcfg ModelConfig, tc TrainConfig) plan.Topology {
	budget, err := plan.DistributedBudget(mcfg.Workload(tc.BatchSize), elasticAlgos())
	if err != nil {
		panic(err)
	}
	return plan.Topology{MemoryBudget: budget}
}

// TestTrainElastic runs the full elastic loop — train, checkpoint, lose the
// last rank mid-step, replan, recover, re-shard, resume — from each default
// family layout, and requires the post-reshard loss curve to match an
// uninterrupted run at the surviving layout bit-for-bit within 1e-8.
func TestTrainElastic(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const failStep, totalSteps = 2, 4
	froms := []parallel.Layout{
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "optimus", Q: 2},
		{Family: "megatron", Ranks: 4},
	}
	for _, from := range froms {
		from := from
		t.Run(from.String(), func(t *testing.T) {
			run, err := TrainElastic(from, ElasticConfig{
				FailStep:   failStep,
				TotalSteps: totalSteps,
				FailRank:   -1,
				Algos:      elasticAlgos(),
				Topology:   elasticTopology(mcfg, tc),
			}, ds, mcfg, tc)
			if err != nil {
				t.Fatalf("TrainElastic: %v", err)
			}
			if run.Failure == nil {
				t.Fatal("no structured failure recorded")
			}
			wantRank := run.From.Ranks - 1
			if run.Failure.Rank != wantRank {
				t.Errorf("failure names rank %d, injected into %d", run.Failure.Rank, wantRank)
			}
			if !errors.Is(run.Failure, ErrSimulatedNodeLoss) {
				t.Errorf("failure lost its cause: %v", run.Failure)
			}
			if run.To.Ranks > run.From.Ranks-1 {
				t.Errorf("replanned layout %s uses %d ranks, only %d survived",
					run.To, run.To.Ranks, run.From.Ranks-1)
			}
			if run.CollectSeconds <= 0 || run.RestoreSeconds <= 0 || run.StepSeconds <= 0 {
				t.Errorf("cost accounting not positive: collect=%g restore=%g step=%g",
					run.CollectSeconds, run.RestoreSeconds, run.StepSeconds)
			}
			ref, err := TrainLayoutSteps(run.To, ds, mcfg, tc, totalSteps)
			if err != nil {
				t.Fatalf("reference run at %s: %v", run.To, err)
			}
			for s := failStep; s < totalSteps; s++ {
				if d := math.Abs(run.Losses[s] - ref[s]); d > 1e-8 {
					t.Errorf("step %d: elastic loss %.12f vs uninterrupted %.12f (|Δ|=%.3g)",
						s, run.Losses[s], ref[s], d)
				}
			}
			t.Logf("%s → %s: reshard (collect %.3gs + restore %.3gs) ≈ %.2f steps",
				run.From, run.To, run.CollectSeconds, run.RestoreSeconds,
				(run.CollectSeconds+run.RestoreSeconds)/run.StepSeconds)
		})
	}
}

// TestTrainElasticEarlyFailure exercises the boundary where the failure hits
// the very first step after a single warmup step, on the smallest tesseract
// depth — the [2,2,1] Optimus corner of the re-shard matrix.
func TestTrainElasticFirstStep(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	run, err := TrainElastic(parallel.Layout{Family: "tesseract", Q: 2, D: 1}, ElasticConfig{
		FailStep:   1,
		TotalSteps: 3,
		FailRank:   0, // the family base rank dies; restore roots on the new base
		Algos:      elasticAlgos(),
		Topology:   elasticTopology(mcfg, tc),
	}, ds, mcfg, tc)
	if err != nil {
		t.Fatalf("TrainElastic: %v", err)
	}
	if run.Failure.Rank != 0 {
		t.Errorf("failure names rank %d, injected into 0", run.Failure.Rank)
	}
	ref, err := TrainLayoutSteps(run.To, ds, mcfg, tc, 3)
	if err != nil {
		t.Fatalf("reference run at %s: %v", run.To, err)
	}
	for s := 1; s < 3; s++ {
		if d := math.Abs(run.Losses[s] - ref[s]); d > 1e-8 {
			t.Errorf("step %d: elastic loss %.12f vs uninterrupted %.12f", s, run.Losses[s], ref[s])
		}
	}
}

// TestCheckpointAllocsSteadyState pins the satellite requirement that
// checkpointing every step does not regress the steady-state allocation
// budget: after warmup, a step+collect cycle must stay within the same
// 10-allocs/step gate the plain step benchmark enforces.
func TestCheckpointAllocsSteadyState(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	sb, err := NewStepBencher(parallel.Layout{Family: "tesseract", Q: 2, D: 2}, ds, mcfg, tc, 2)
	if err != nil {
		t.Fatalf("NewStepBencher: %v", err)
	}
	cks := make([]*parallel.Checkpoint, 8)
	// Warm the checkpoint buffers and state-walk caches.
	if err := sb.StepsCheckpointed(2, cks); err != nil {
		t.Fatalf("warmup StepsCheckpointed: %v", err)
	}
	const steps = 5
	allocs := testing.AllocsPerRun(3, func() {
		if err := sb.StepsCheckpointed(steps, cks); err != nil {
			t.Fatalf("StepsCheckpointed: %v", err)
		}
	})
	perStep := allocs / steps
	t.Logf("checkpointed step: %.1f allocs/step (all 8 ranks)", perStep)
	// The gate is 10 allocs per rank-step; the bencher runs 8 ranks, plus a
	// fixed per-Run overhead (goroutines, barriers) amortised over 5 steps.
	if perStep > 8*10+40 {
		t.Errorf("checkpointed step allocates %.1f/step across 8 ranks — checkpoint path regressed the steady state", perStep)
	}
}

// TestRestoreMatchesCheckpoint pins the bitwise round-trip on the bencher's
// same-layout path: collect, clobber the live weights, restore, collect
// again — the two checkpoints must be identical in every bit.
func TestRestoreBitwise(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	l := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	sb, err := NewStepBencher(l, ds, mcfg, tc, 1)
	if err != nil {
		t.Fatalf("NewStepBencher: %v", err)
	}
	cks := make([]*parallel.Checkpoint, 8)
	if err := sb.StepsCheckpointed(1, cks); err != nil {
		t.Fatalf("StepsCheckpointed: %v", err)
	}
	ck := cks[0]
	// Clobber: run more steps so every weight and moment moves on.
	if err := sb.Steps(2); err != nil {
		t.Fatalf("Steps: %v", err)
	}
	if err := sb.Restore(ck); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	after := make([]*parallel.Checkpoint, 8)
	if err := collectAll(sb, after); err != nil {
		t.Fatalf("collect after restore: %v", err)
	}
	if len(after[0].Slots) != len(ck.Slots) {
		t.Fatalf("slot count changed: %d vs %d", len(after[0].Slots), len(ck.Slots))
	}
	if after[0].Step != ck.Step {
		t.Errorf("step count %d survived restore as %d", ck.Step, after[0].Step)
	}
	for i := range ck.Slots {
		a, b := ck.Slots[i], after[0].Slots[i]
		if d := a.Value.MaxAbsDiff(b.Value); d != 0 {
			t.Errorf("slot %d value differs after round-trip: %g", i, d)
		}
		if d := a.M.MaxAbsDiff(b.M); d != 0 {
			t.Errorf("slot %d first moment differs after round-trip: %g", i, d)
		}
		if d := a.V.MaxAbsDiff(b.V); d != 0 {
			t.Errorf("slot %d second moment differs after round-trip: %g", i, d)
		}
	}
}

// collectAll snapshots every rank of the bencher's live model.
func collectAll(sb *StepBencher, cks []*parallel.Checkpoint) error {
	return sb.run(func(w *dist.Worker) error { return sb.collect(w, cks) })
}
