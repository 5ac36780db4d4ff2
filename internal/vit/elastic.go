package vit

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// ErrSimulatedNodeLoss is the cause TrainElastic's injected failure carries;
// the recovery path asserts the abort reports it (not the generic poisoned-
// cluster message) before replanning.
var ErrSimulatedNodeLoss = errors.New("vit: simulated node loss")

// ElasticConfig controls a TrainElastic run: where the failure strikes and
// what the replanner may choose from.
type ElasticConfig struct {
	// FailStep is the training step during which a rank dies (≥ 1); the
	// checkpoint holds the state from just before it, so training resumes
	// at FailStep on the new layout.
	FailStep int
	// TotalSteps is the full run length, > FailStep.
	TotalSteps int
	// FailRank is the rank that dies. The zero value is rank 0; any
	// negative value picks the layout's highest rank.
	FailRank int
	// Algos are the planner candidates Replan searches over.
	Algos []plan.Algo
	// Topology describes the machine for the replan; RankBudget is
	// overwritten with the surviving count.
	Topology plan.Topology
}

// ElasticRun is the outcome of one elastic training run: the two layouts,
// the structured failure, the full per-step loss curve (steps before
// FailStep trained at From, the rest at To), and the simulated-clock cost
// accounting the ElasticStudy turns into re-shard-vs-step ratios.
type ElasticRun struct {
	From, To parallel.Layout
	Failure  *dist.Failure

	FailStep int
	Losses   []float64

	// CollectSeconds is the simulated cost of snapshotting the model into
	// per-rank checkpoints at the From layout (the buddy exchange).
	CollectSeconds float64
	// RestoreSeconds is the simulated cost of re-sharding the survivors'
	// checkpoints onto the To layout (the agreement round and one
	// all-reduce per slot whose placement changes).
	RestoreSeconds float64
	// StepSeconds is the steady-state training-step cost at the To layout,
	// averaged over the post-reshard steps.
	StepSeconds float64
}

// TrainLayoutSteps trains at one layout for a flat number of steps and
// returns the per-step loss curve — the uninterrupted reference TrainElastic
// runs are compared against.
func TrainLayoutSteps(l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig, total int) ([]float64, error) {
	s, err := NewSession(nil, l, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	defer s.c.Close()
	return s.Train(total)
}

// TrainableErr is nil when the ViT trainer can instantiate and train this
// model at the given layout — the filter the -plan CLI path and the elastic
// replan use to skip layouts the searcher likes but the model cannot run —
// and otherwise one actionable error naming the dimension that does not
// divide, where model construction would panic. The activation split is
// parallel.CheckActivation's, the replay's own rule (its head checks hold for
// the serial model too); the trainer adds whole sequences per rank, the patch
// dimension over a mesh side and model dimensions of at least 1.
func TrainableErr(l parallel.Layout, batch int, mcfg ModelConfig) error {
	l, err := parallel.Validate(l)
	if err != nil {
		return err
	}
	if batch%l.RowShards() != 0 {
		return fmt.Errorf("vit: batch %d not divisible by %s's %d row shards", batch, l, l.RowShards())
	}
	if err := parallel.CheckActivation(l, batch, mcfg.SeqLen, mcfg.Hidden, mcfg.Heads); err != nil {
		return err
	}
	if l.Q > 0 && mcfg.PatchDim%l.Q != 0 {
		return fmt.Errorf("vit: patch dim %d not divisible by %s's mesh side q=%d", mcfg.PatchDim, l, l.Q)
	}
	for _, dim := range []struct {
		name string
		n    int
	}{{"hidden width", mcfg.Hidden}, {"layer count", mcfg.Layers}, {"class count", mcfg.Classes},
		{"patch dimension", mcfg.PatchDim}, {"sequence length", mcfg.SeqLen}} {
		if dim.n < 1 {
			return fmt.Errorf("vit: %s %d, need at least 1", dim.name, dim.n)
		}
	}
	return nil
}

// TrainElastic is the full elastic loop on the simulated cluster: train at
// `from` until cfg.FailStep, checkpoint, inject a node loss, read the
// structured abort cause, replan under the surviving rank budget, recover a
// fresh cluster, re-lay-out onto it, and finish training there. The returned
// loss curve matches an uninterrupted run at the surviving layout from the
// re-shard point (≤1e-8 — the family-parity property carried across the
// re-shard). Collect, restore and the post-reshard steps are each costed on
// a fresh clock window.
func TrainElastic(from parallel.Layout, cfg ElasticConfig, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (*ElasticRun, error) {
	if cfg.FailStep < 1 || cfg.TotalSteps <= cfg.FailStep {
		return nil, fmt.Errorf("vit: elastic needs 1 ≤ FailStep (%d) < TotalSteps (%d)", cfg.FailStep, cfg.TotalSteps)
	}
	if len(cfg.Algos) == 0 {
		return nil, fmt.Errorf("vit: elastic replan needs planner algos")
	}
	s, err := NewSession(nil, from, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	from, c := s.l, s.c
	defer c.Close()
	if from.Ranks < 2 {
		return nil, fmt.Errorf("vit: elastic needs a layout of at least 2 ranks to lose one, %s has %d", from, from.Ranks)
	}
	failRank := cfg.FailRank
	if failRank < 0 {
		failRank = from.Ranks - 1
	}
	if failRank >= from.Ranks {
		return nil, fmt.Errorf("vit: fail rank %d outside the %d-rank layout", failRank, from.Ranks)
	}
	run := &ElasticRun{From: from, FailStep: cfg.FailStep}

	if run.Losses, err = s.Train(cfg.FailStep); err != nil {
		return nil, err
	}
	c.ResetClocks()
	if run.CollectSeconds, err = s.Collect(); err != nil {
		return nil, err
	}

	// Inject the node loss during step FailStep. The failing rank dies; the
	// survivors block in their next collective and are unwound by the abort.
	// The in-flight step's state is discarded — the checkpoint just
	// collected is what survives.
	err = c.Run(func(w *dist.Worker) error {
		if w.Rank() == failRank {
			return fmt.Errorf("step %d: %w", cfg.FailStep, ErrSimulatedNodeLoss)
		}
		s.trainStep(w, cfg.FailStep, nil)
		return nil
	})
	if err == nil {
		return nil, fmt.Errorf("vit: injected node loss did not abort the cluster")
	}
	if !errors.Is(err, ErrSimulatedNodeLoss) {
		return nil, fmt.Errorf("vit: abort lost its cause: %w", err)
	}
	run.Failure = c.Failure()
	if run.Failure == nil || run.Failure.Rank != failRank {
		return nil, fmt.Errorf("vit: abort cause names the wrong rank: %+v", run.Failure)
	}

	run.To, err = s.Replan(cfg.Topology, cfg.Algos, len(c.Survivors()))
	if err != nil {
		// A *plan.NoFeasibleError passes through the %w wrap intact, so
		// callers can errors.As it and decide the cluster is simply lost
		// rather than treat the miss as a malfunction.
		return nil, fmt.Errorf("vit: elastic replan after losing rank %d: %w", failRank, err)
	}
	c2, err := c.Recover()
	if err != nil {
		return nil, err
	}
	defer c2.Close()
	s, _, run.RestoreSeconds, err = s.Relayout(c2, run.To)
	if err != nil {
		return nil, err
	}
	c2.ResetClocks()
	rest, err := s.Train(cfg.TotalSteps - cfg.FailStep)
	if err != nil {
		return nil, err
	}
	run.Losses = append(run.Losses, rest...)
	run.StepSeconds = c2.MaxClock() / float64(cfg.TotalSteps-cfg.FailStep)
	return run, nil
}
