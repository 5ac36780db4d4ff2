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
// family, the model and the optimiser, plus the flat trainer-step counter.
// Every distributed trainer, the step bencher and the serving runtime are
// callers of it, so a model reaches the same bits however it was driven.
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

	fams    []parallel.Family
	models  []*DistModel
	opts    []*nn.Adam
	batches []trainBatch

	step     int                    // trainer steps taken; indexes the epoch-shuffled batch sequence
	batchErr error                  // why the train batch is unusable; Train reports it
	cks      []*parallel.Checkpoint // the last Collect's, by rank

	// The active run's operation and its arguments, which onRank, bound
	// once, hands every rank (see run).
	op     func(s *Session, w *dist.Worker) error
	arg    runArg
	onRank func(w *dist.Worker) error
}

// runArg is what an operation reads besides the session.
type runArg struct {
	losses  []float64              // train: rank 0 records the step losses
	correct *int                   // train: rank 0's correct count, if wanted
	from    []*parallel.Checkpoint // Reshard: the checkpoints to install, by new rank
}

// trainBatch is one rank's copy of the trainer's current batch, rebuilt in
// place every step: the order of the epoch it is in, the tokens and the
// labels.
type trainBatch struct {
	epoch  int
	order  []int
	x      *tensor.Matrix
	labels []int
}

// NewSession validates the layout and the model, checks the TrainConfig and
// applies its defaults — the one place that happens for distributed training —
// and builds every rank's family, model and optimiser on c. A nil c means a bare
// cluster of exactly the layout's ranks, which the session's Cluster returns
// and whoever drops the session closes. An unusable train batch does not
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
	built := c == nil
	if built {
		c = dist.New(dist.Config{WorldSize: l.Ranks})
	}
	if l.Ranks > c.WorldSize() {
		return nil, fmt.Errorf("vit: %s needs %d ranks, the cluster has %d", l, l.Ranks, c.WorldSize())
	}
	s := &Session{
		c: c, l: l, ds: ds, mcfg: mcfg, tc: tc,
		fams:    make([]parallel.Family, l.Ranks),
		models:  make([]*DistModel, l.Ranks),
		opts:    make([]*nn.Adam, l.Ranks),
		batches: make([]trainBatch, l.Ranks),
		cks:     make([]*parallel.Checkpoint, l.Ranks),
	}
	s.onRank = s.runOp
	if b := s.tc.BatchSize; b < 1 || b > len(ds.Train) {
		s.batchErr = fmt.Errorf("vit: batch %d outside [1, %d training samples]: no step would run", b, len(ds.Train))
	} else {
		s.batchErr = TrainableErr(l, b, mcfg)
	}
	err = s.run(runArg{}, func(s *Session, w *dist.Worker) error {
		f, err := parallel.New(w, s.l)
		if err != nil {
			return err
		}
		r := w.Rank()
		s.fams[r] = f
		s.models[r] = NewDistModel(f, s.mcfg)
		s.opts[r] = nn.NewAdam(s.tc.LR, s.tc.WeightDecay)
		return nil
	})
	if err != nil {
		if built {
			c.Close()
		}
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
		return TrainableErr(p.Grid, s.tc.BatchSize, s.mcfg) == nil
	})
	if err != nil {
		return parallel.Layout{}, err
	}
	return parallel.Validate(best.Grid)
}

// run executes op on every rank of the layout — and on every rank past it
// that holds one of arg.from — with arg in s.arg; surplus cluster ranks
// idle. Only the steady-state verbs — Train, Collect and
// Reshard — pass their arguments through runArg to a method expression, so
// that they allocate nothing but their result; every other operation
// (construction, EvalLogits, the StepBencher's fixed-batch loops) passes a
// closure over its own arguments, one allocation per call off that path.
// WorkspaceStats visits every cluster rank and calls the cluster directly.
//
// The s.op check repeats dist's ErrRunActive only because op and arg are
// written before s.c.Run claims the cluster: a call from inside one of the
// session's own operations would otherwise overwrite the running one's.
func (s *Session) run(arg runArg, op func(s *Session, w *dist.Worker) error) error {
	if s.op != nil {
		return dist.ErrRunActive
	}
	s.op, s.arg = op, arg
	err := s.c.Run(s.onRank)
	s.op, s.arg = nil, runArg{}
	return err
}

// runOp runs the active operation on one rank.
func (s *Session) runOp(w *dist.Worker) error {
	if w.Rank() >= max(s.l.Ranks, len(s.arg.from)) {
		return nil
	}
	return s.op(s, w)
}

// stepOn is the distributed training step on one batch, on one rank:
// forward, loss, backward, optimiser update, and the step boundary that
// gathers the optimiser's weight bands and recycles every activation and
// scratch buffer. No gradient is zeroed first: every layer computes a
// parameter's partial into its Grad, overwriting it, before it lands
// (TestBackwardOverwritesEveryGrad). It returns the loss (replicated on
// every rank). A non-nil correct is advanced by the batch's correctly
// classified rows — the epoch trainer's accuracy, kept off every other
// caller's path because counting allocates.
func (s *Session) stepOn(w *dist.Worker, x *tensor.Matrix, labels []int, correct *int) float64 {
	r := w.Rank()
	f, model := s.fams[r], s.models[r]
	params := model.Params()
	logits := model.Forward(DistributeBatch(f, x, s.mcfg.SeqLen))
	dl := w.Workspace().GetUninitMatch(logits.Rows, logits.Cols, logits.Phantom())
	loss := nn.CrossEntropyInto(dl, logits, labels)
	if correct != nil {
		*correct += nn.CorrectCount(logits, labels)
	}
	model.Backward(dl)
	s.opts[r].Step(params)
	f.EndStep()
	return loss
}

// stepBatch fills the rank's trainBatch with the batch of flat step index
// step — the epoch-shuffled sample window, so step-indexed and
// epoch-indexed runs see identical batches — and returns its tokens and
// labels.
func (s *Session) stepBatch(r, step int) (*tensor.Matrix, []int) {
	b := &s.batches[r]
	spe := len(s.ds.Train) / s.tc.BatchSize
	if epoch := step / spe; b.order == nil || b.epoch != epoch {
		if b.order == nil {
			b.order = make([]int, len(s.ds.Train))
		}
		epochOrder(b.order, epoch, s.tc.Seed)
		b.epoch = epoch
	}
	start := (step % spe) * s.tc.BatchSize
	b.x, b.labels = s.ds.batchInto(b.x, b.labels, s.ds.Train, b.order[start:start+s.tc.BatchSize])
	return b.x, b.labels
}

// trainStep is stepOn fed the trainer's batch for flat step index step,
// bracketed by Worker.BeginStep/EndStep so the index drives any installed
// fault plan and the (total, busy) split reaches an attached monitor; on a
// bare cluster the bracket is free and changes nothing.
func (s *Session) trainStep(w *dist.Worker, step int, correct *int) float64 {
	w.BeginStep(step)
	defer w.EndStep()
	x, labels := s.stepBatch(w.Rank(), step)
	return s.stepOn(w, x, labels, correct)
}

// train advances every rank len(losses) trainer steps in one cluster Run and
// fills losses from rank 0; correct, if non-nil, receives rank 0's count.
func (s *Session) train(losses []float64, correct *int) error {
	if s.batchErr != nil {
		return s.batchErr
	}
	err := s.run(runArg{losses: losses, correct: correct}, (*Session).trainRank)
	if err != nil {
		return err
	}
	s.step += len(losses)
	return nil
}

// trainRank is train's operation on one rank.
func (s *Session) trainRank(w *dist.Worker) error {
	var hits *int
	if w.Rank() == 0 {
		hits = s.arg.correct
	}
	for i := range s.arg.losses {
		loss := s.trainStep(w, s.step+i, hits)
		if w.Rank() == 0 {
			s.arg.losses[i] = loss
		}
	}
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
	err := s.run(runArg{}, func(s *Session, w *dist.Worker) error {
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

// collectRank is Collect's operation on one rank.
func (s *Session) collectRank(w *dist.Worker) error { return s.collect(w, s.cks) }

// collect snapshots one rank into cks[rank], building the checkpoint on
// first use and reusing it afterwards.
func (s *Session) collect(w *dist.Worker, cks []*parallel.Checkpoint) error {
	r := w.Rank()
	ck, err := parallel.CollectInto(cks[r], s.fams[r], s.models[r], s.opts[r])
	cks[r] = ck
	return err
}

// Collect snapshots model and optimiser into the session's checkpoints —
// every rank its own pieces plus its buddy's; the buffers are reused by
// later Collects — and returns the simulated seconds the buddy exchange
// added to the cluster's largest clock.
func (s *Session) Collect() (float64, error) {
	pre := s.c.MaxClock()
	err := s.run(runArg{}, (*Session).collectRank)
	return s.c.MaxClock() - pre, err
}

// Checkpoint returns the last Collect's checkpoints of the ranks still alive,
// in rank order — after a node loss the dead rank's memory is gone, and its
// buddy holds its pieces — or nil if there is none.
func (s *Session) Checkpoint() []*parallel.Checkpoint {
	if s.c.Failure() != nil {
		return s.checkpointsOf(s.c.Survivors())
	}
	if s.cks[0] == nil {
		return nil
	}
	return s.cks // every rank survives; skip listing them
}

// checkpointsOf returns the last Collect's checkpoints of the given ranks
// that the layout holds, or nil if there is none.
func (s *Session) checkpointsOf(ranks []int) []*parallel.Checkpoint {
	var out []*parallel.Checkpoint
	for _, r := range ranks {
		if r < s.l.Ranks && s.cks[r] != nil {
			out = append(out, s.cks[r])
		}
	}
	return out
}

// Reshard installs checkpoints collected under any layout onto this
// session's model and optimiser, and returns the simulated seconds the
// restore added to the cluster's largest clock. cks[j] seeds cluster rank
// j — the j-th surviving old rank's, as Checkpoint lists them; those past
// the cluster's size are left out, and their pieces come from their
// buddies. A rank past the layout that holds one still takes part
// (parallel.Contribute). The step counter is left alone: a checkpoint does
// not know where in the batch sequence its trainer stood (Relayout carries
// that).
func (s *Session) Reshard(cks []*parallel.Checkpoint) (float64, error) {
	cks = cks[:min(len(cks), s.c.WorldSize())]
	if len(cks) == 0 {
		return 0, fmt.Errorf("vit: reshard onto %s: no checkpoint", s.l)
	}
	for _, ck := range cks {
		if ck == nil || ck.Ranks != cks[0].Ranks {
			return 0, fmt.Errorf("vit: reshard onto %s: the checkpoints are not one collect's", s.l)
		}
	}
	if n := parallel.RestoreRanks(s.c.WorldSize(), s.l.Ranks, cks[0].Ranks); n > max(s.l.Ranks, len(cks)) {
		return 0, fmt.Errorf("vit: reshard onto %s: %d checkpoints of a %d-rank layout leave ranks [%d, %d) of the cluster with neither",
			s.l, len(cks), cks[0].Ranks, max(s.l.Ranks, len(cks)), n)
	}
	pre := s.c.MaxClock()
	err := s.run(runArg{from: cks}, (*Session).restoreRank)
	return s.c.MaxClock() - pre, err
}

// restoreRank is Reshard's operation on one rank.
func (s *Session) restoreRank(w *dist.Worker) error {
	r := w.Rank()
	var ck *parallel.Checkpoint
	if r < len(s.arg.from) {
		ck = s.arg.from[r]
	}
	if r >= s.l.Ranks {
		return parallel.Contribute(w, ck)
	}
	return parallel.Restore(s.fams[r], s.models[r], s.opts[r], ck)
}

// Relayout moves training onto layout l on cluster c — which may be this
// session's own cluster, a recovered one or a fresh one — and returns the new
// session, continuing this one's step sequence. A live session is collected
// first and the collect seconds land on its cluster's clock; one whose
// cluster has failed cannot be, so the checkpoints from its last Collect are
// what move (collect is then 0). holders lists the old ranks whose
// checkpoints seed c's ranks 0, 1, …; none means every rank still alive.
// The re-shard seconds land on c's clock.
func (s *Session) Relayout(c *dist.Cluster, l parallel.Layout, holders ...int) (to *Session, collect, restore float64, err error) {
	if s.c.Failure() == nil {
		if collect, err = s.Collect(); err != nil {
			return nil, 0, 0, err
		}
	}
	cks := s.Checkpoint()
	if len(holders) > 0 {
		cks = s.checkpointsOf(holders)
	}
	if cks == nil {
		return nil, 0, 0, fmt.Errorf("vit: relayout of %s: no checkpoint was collected before its cluster failed", s.l)
	}
	if to, err = NewSession(c, l, s.ds, s.mcfg, s.tc); err != nil {
		return nil, 0, 0, err
	}
	to.step = s.step
	if restore, err = to.Reshard(cks); err != nil {
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
