package vit

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Session is one layout training one model on one cluster: per rank the
// family, the model, the optimiser and the parameter walk, plus the flat
// trainer-step counter. Every distributed trainer, the step bencher and the
// serving runtime are callers of it, so a model reaches the same bits
// however it was driven.
//
// The cluster may be shared between sessions and may be larger than the
// layout; ranks past the layout's idle in every Run. Simulated clocks belong
// to the cluster: the session never resets them, it only reports how far a
// Collect or Reshard moved the largest one.
type Session struct {
	c    *dist.Cluster
	l    parallel.Layout
	ds   *Dataset
	mcfg ModelConfig
	tc   TrainConfig // defaults applied

	fams   []parallel.Family
	models []*DistModel
	opts   []*nn.Adam
	params [][]*nn.Param // models[r].Params(), walked once: the walk allocates

	step     int   // trainer steps taken; indexes the epoch-shuffled batch sequence
	batchErr error // why the train batch is unusable; Train reports it
	cks      []*parallel.Checkpoint
}

// NewSession validates the layout and the model, checks the TrainConfig and
// applies its defaults — the one place that happens for distributed training —
// and builds every rank's family, model and optimiser on c. A nil c means a bare
// cluster of exactly the layout's ranks. An unusable train batch does not
// fail construction (a session that only serves never needs one); Train
// reports it before any step runs.
func NewSession(c *dist.Cluster, l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (*Session, error) {
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	if err := TrainableErr(l, l.RowShards(), mcfg); err != nil {
		return nil, err
	}
	tc, err = tc.withDefaults()
	if err != nil {
		return nil, err
	}
	if c == nil {
		c = dist.New(dist.Config{WorldSize: l.Ranks})
	}
	if l.Ranks > c.WorldSize() {
		return nil, fmt.Errorf("vit: %s needs %d ranks, the cluster has %d", l, l.Ranks, c.WorldSize())
	}
	s := &Session{
		c: c, l: l, ds: ds, mcfg: mcfg, tc: tc,
		fams:   make([]parallel.Family, l.Ranks),
		models: make([]*DistModel, l.Ranks),
		opts:   make([]*nn.Adam, l.Ranks),
		params: make([][]*nn.Param, l.Ranks),
		cks:    make([]*parallel.Checkpoint, l.Ranks),
	}
	if b := s.tc.BatchSize; b < 1 || b > len(ds.Train) {
		s.batchErr = fmt.Errorf("vit: batch %d outside [1, %d training samples]: no step would run", b, len(ds.Train))
	} else {
		s.batchErr = TrainableErr(l, b, mcfg)
	}
	err = s.run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		r := w.Rank()
		s.fams[r] = f
		s.models[r] = NewDistModel(f, mcfg)
		s.opts[r] = nn.NewAdam(s.tc.LR, s.tc.WeightDecay)
		s.params[r] = s.models[r].Params()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Cluster returns the cluster the session runs on, for clocks, statistics,
// monitors and per-rank inspection between Runs.
func (s *Session) Cluster() *dist.Cluster { return s.c }

// Layout returns the validated layout.
func (s *Session) Layout() parallel.Layout { return s.l }

// Model returns rank r's model (and through its F field the rank's family):
// what the serving runtime runs forward and tests inspect.
func (s *Session) Model(r int) *DistModel { return s.models[r] }

// Workload is the planner's view of one training step of this session.
func (s *Session) Workload() plan.Workload { return s.mcfg.Workload(s.tc.BatchSize) }

// Workload is the planner's view of one training step of this model at the
// given batch.
func (c ModelConfig) Workload(batch int) plan.Workload {
	return plan.Workload{Batch: batch, SeqLen: c.SeqLen, Hidden: c.Hidden, Heads: c.Heads, Layers: c.Layers}
}

// Replan searches algos for the best layout on at most budget ranks that
// this session's model and batch can train on (the searcher's feasibility
// is per token; the trainer needs whole sequences per rank). A
// *plan.NoFeasibleError passes through intact.
func (s *Session) Replan(topo plan.Topology, algos []plan.Algo, budget int) (parallel.Layout, error) {
	best, err := plan.Replan(s.Workload(), topo, algos, budget, func(p plan.Plan) bool {
		return Trainable(p.Layout(), s.tc.BatchSize, s.mcfg)
	})
	if err != nil {
		return parallel.Layout{}, err
	}
	return parallel.Validate(best.Layout())
}

// run executes fn on every rank of the layout; surplus cluster ranks idle.
func (s *Session) run(fn func(w *dist.Worker) error) error {
	return s.c.Run(func(w *dist.Worker) error {
		if w.Rank() >= s.l.Ranks {
			return nil
		}
		return fn(w)
	})
}

// stepOn is the distributed training step on one batch, on one rank:
// forward, loss, zero-grad, backward, optimiser update, and the step
// boundary that recycles every activation and scratch buffer. It returns the
// loss (replicated on every rank). A non-nil correct is advanced by the
// batch's correctly classified rows — the epoch trainer's accuracy, kept off
// every other caller's path because counting allocates.
func (s *Session) stepOn(w *dist.Worker, x *tensor.Matrix, labels []int, correct *int) float64 {
	r := w.Rank()
	f, model, params := s.fams[r], s.models[r], s.params[r]
	logits := model.Forward(DistributeBatch(f, x, s.mcfg.SeqLen))
	dl := w.Workspace().GetUninitMatch(logits.Rows, logits.Cols, logits.Phantom())
	loss := nn.CrossEntropyInto(dl, logits, labels)
	if correct != nil {
		*correct += nn.CorrectCount(logits, labels)
	}
	for _, pa := range params {
		pa.ZeroGrad()
	}
	model.Backward(dl)
	s.opts[r].Step(params)
	f.EndStep()
	return loss
}

// stepBatch maps a flat step index onto the epoch-shuffled sample window, so
// step-indexed and epoch-indexed runs see identical batches.
func (s *Session) stepBatch(step int) []int {
	spe := len(s.ds.Train) / s.tc.BatchSize
	order := epochOrder(len(s.ds.Train), step/spe, s.tc.Seed)
	start := (step % spe) * s.tc.BatchSize
	return order[start : start+s.tc.BatchSize]
}

// trainStep is stepOn fed the trainer's batch for flat step index step,
// bracketed by Worker.BeginStep/EndStep so the index drives any installed
// fault plan and the (total, busy) split reaches an attached monitor; on a
// bare cluster the bracket is free and changes nothing.
func (s *Session) trainStep(w *dist.Worker, step int, correct *int) float64 {
	w.BeginStep(step)
	defer w.EndStep()
	x, labels := s.ds.Batch(s.ds.Train, s.stepBatch(step))
	return s.stepOn(w, x, labels, correct)
}

// train advances every rank len(losses) trainer steps in one cluster Run and
// fills losses from rank 0; correct, if non-nil, receives rank 0's count.
func (s *Session) train(losses []float64, correct *int) error {
	if s.batchErr != nil {
		return s.batchErr
	}
	first := s.step
	err := s.run(func(w *dist.Worker) error {
		var hits *int
		if w.Rank() == 0 {
			hits = correct
		}
		for i := range losses {
			loss := s.trainStep(w, first+i, hits)
			if w.Rank() == 0 {
				losses[i] = loss
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.step += len(losses)
	return nil
}

// Train advances the model n steps down the trainer's step path —
// epoch-shuffled batches, flat step indices continuing across calls and
// across Relayout — and returns the per-step losses.
func (s *Session) Train(n int) ([]float64, error) {
	losses := make([]float64, n)
	if err := s.train(losses, nil); err != nil {
		return nil, err
	}
	return losses, nil
}

// evalForward is the trainer's one eval forward on one rank: the test rows
// idx, padded up to the family's row divisibility unit by repeating the
// first sample — per-sample logits are independent, so padding rows cannot
// perturb real rows. It returns the replicated logits; rows past len(idx)
// are padding. The caller owns the step boundary (Family.EndStep) once it is
// done with the logits.
func (s *Session) evalForward(w *dist.Worker, idx []int) *tensor.Matrix {
	f := s.fams[w.Rank()]
	unit := f.RowShards()
	pidx := make([]int, (len(idx)+unit-1)/unit*unit)
	copy(pidx, idx)
	for i := len(idx); i < len(pidx); i++ {
		pidx[i] = idx[0]
	}
	x, _ := s.ds.Batch(s.ds.Test, pidx)
	return s.models[w.Rank()].Forward(DistributeBatch(f, x, s.mcfg.SeqLen))
}

// EvalLogits runs the eval forward over the given test rows and returns a
// copy of the logits of the real rows — what the trainer classifies these
// samples as, bit for bit.
func (s *Session) EvalLogits(idx []int) (*tensor.Matrix, error) {
	var out *tensor.Matrix
	err := s.run(func(w *dist.Worker) error {
		logits := s.evalForward(w, idx)
		if w.Rank() == 0 {
			out = tensor.New(len(idx), logits.Cols)
			tensor.SubMatrixInto(out, logits, 0, 0)
		}
		s.fams[w.Rank()].EndStep()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// collect snapshots one rank into cks[rank], building the checkpoint on
// first use and reusing it afterwards.
func (s *Session) collect(w *dist.Worker, cks []*parallel.Checkpoint) error {
	r := w.Rank()
	ck, err := parallel.CollectInto(cks[r], s.fams[r], s.models[r], s.opts[r])
	cks[r] = ck
	return err
}

// Collect snapshots model and optimiser into the session's replicated
// checkpoint (every rank holds an identical replica; the buffers are reused
// by later Collects) and returns the simulated seconds the per-slot
// all-reduces added to the cluster's largest clock.
func (s *Session) Collect() (float64, error) {
	pre := s.c.MaxClock()
	err := s.run(func(w *dist.Worker) error { return s.collect(w, s.cks) })
	return s.c.MaxClock() - pre, err
}

// Checkpoint returns the last Collect's replica as held by a rank that is
// still alive — after a node loss the dead rank's memory is gone, and the
// replicas are identical — or nil if there is none.
func (s *Session) Checkpoint() *parallel.Checkpoint {
	for _, r := range s.c.Survivors() {
		if r < s.l.Ranks {
			return s.cks[r]
		}
	}
	return nil
}

// Reshard installs a checkpoint collected under any layout onto this
// session's model and optimiser, and returns the simulated seconds the
// per-slot broadcasts added to the cluster's largest clock. The step counter
// is left alone: a checkpoint does not know where in the batch sequence its
// trainer stood (Relayout carries that).
func (s *Session) Reshard(ck *parallel.Checkpoint) (float64, error) {
	pre := s.c.MaxClock()
	err := s.run(func(w *dist.Worker) error {
		r := w.Rank()
		return parallel.Reshard(s.fams[r], s.models[r], s.opts[r], ck)
	})
	return s.c.MaxClock() - pre, err
}

// Relayout moves training onto layout l on cluster c — which may be this
// session's own cluster, a recovered one or a fresh one — and returns the new
// session, continuing this one's step sequence. A live session is collected
// first and the collect seconds land on its cluster's clock; one whose
// cluster has failed cannot be, so the checkpoint from its last Collect is
// what moves (collect is then 0). The re-shard seconds land on c's clock.
func (s *Session) Relayout(c *dist.Cluster, l parallel.Layout) (to *Session, collect, restore float64, err error) {
	if s.c.Failure() == nil {
		if collect, err = s.Collect(); err != nil {
			return nil, 0, 0, err
		}
	}
	ck := s.Checkpoint()
	if ck == nil {
		return nil, 0, 0, fmt.Errorf("vit: relayout of %s: no checkpoint was collected before its cluster failed", s.l)
	}
	if to, err = NewSession(c, l, s.ds, s.mcfg, s.tc); err != nil {
		return nil, 0, 0, err
	}
	to.step = s.step
	if restore, err = to.Reshard(ck); err != nil {
		return nil, 0, 0, err
	}
	return to, collect, restore, nil
}

// WorkspaceStats snapshots every cluster rank's pool counters, by rank.
func (s *Session) WorkspaceStats() ([]tensor.WorkspaceStats, error) {
	out := make([]tensor.WorkspaceStats, s.c.WorldSize())
	err := s.c.Run(func(w *dist.Worker) error {
		out[w.Rank()] = w.Workspace().Stats()
		return nil
	})
	return out, err
}
