package vit

import (
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// StepBencher is a session on its own cluster plus one fixed batch, so
// benchmarks and leak tests can separate model construction and warm-up from
// the steady-state step they measure. Steps and StepsCheckpointed train on
// the fixed batch; everything the session offers (TrainSteps' trainer path,
// EvalLogits, Cluster, Model, WorkspaceStats) runs on the same weights.
type StepBencher struct {
	*Session
	x      *tensor.Matrix
	labels []int
}

// NewStepBencher builds the session and runs warmup steps so pools, caches
// and optimiser state reach steady state.
func NewStepBencher(l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig, warmup int) (*StepBencher, error) {
	s, err := NewSession(nil, l, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	if s.batchErr != nil {
		return nil, s.batchErr
	}
	idx := make([]int, s.tc.BatchSize)
	for i := range idx {
		idx[i] = i
	}
	sb := &StepBencher{Session: s}
	sb.x, sb.labels = ds.Batch(ds.Train, idx)
	if warmup > 0 {
		if err := sb.Steps(warmup); err != nil {
			return nil, err
		}
	}
	return sb, nil
}

// Steps runs n full training steps on the fixed batch on every rank within
// a single cluster run.
func (sb *StepBencher) Steps(n int) error {
	return sb.run(func(w *dist.Worker) error {
		for i := 0; i < n; i++ {
			sb.stepOn(w, sb.x, sb.labels, nil)
		}
		return nil
	})
}

// TrainSteps advances every rank n steps down the trainer's exact step path
// — the reference the serving runtime's TrainSteps is compared against
// bitwise.
func (sb *StepBencher) TrainSteps(n int) error {
	_, err := sb.Train(n)
	return err
}

// StepsCheckpointed runs n fixed-batch steps with a checkpoint collected
// after every one — the elastic steady state the allocation tests and
// BenchmarkReshard measure. cks must have one (possibly nil) slot per rank;
// the checkpoints are built on first use and reused (and returned) so the
// steady state allocates nothing.
func (sb *StepBencher) StepsCheckpointed(n int, cks []*parallel.Checkpoint) error {
	return sb.run(func(w *dist.Worker) error {
		for i := 0; i < n; i++ {
			sb.stepOn(w, sb.x, sb.labels, nil)
			if err := sb.collect(w, cks); err != nil {
				return err
			}
		}
		return nil
	})
}

// Restore re-shards a checkpoint onto every rank's model and optimiser —
// the same-layout restore path, used to measure re-shard cost against step
// cost on one persistent cluster.
func (sb *StepBencher) Restore(ck *parallel.Checkpoint) error {
	_, err := sb.Reshard(ck)
	return err
}

// MaxClock exposes the cluster's largest simulated clock, and ResetClocks
// starts a fresh timing window — the pair benchmarks use to attribute
// simulated seconds to step, collect and restore phases separately.
func (sb *StepBencher) MaxClock() float64 { return sb.c.MaxClock() }

// ResetClocks zeroes the simulated clocks between phases.
func (sb *StepBencher) ResetClocks() { sb.c.ResetClocks() }
