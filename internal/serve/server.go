package serve

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// Server is a vit.Session in inference mode on its own simulated cluster:
// requests index the dataset's test split (round-robin), the batcher
// coalesces them, and every forward runs each rank's block of a padded batch
// through the same parallel.Model the trainer evaluates with —
// workspace-pooled, so steady-state serving stays out of the allocator
// exactly like steady-state training: a warm Serve allocates its Report and
// nothing else. The session owns the model, the optimiser, the TrainConfig
// defaults and their validation, so the served weights are the trainer's.
type Server struct {
	*vit.Session
	cfg  Config
	ds   *vit.Dataset
	mcfg vit.ModelConfig

	unit   int
	sync   []*parallel.ClockSync
	traces []trace // each rank's batcher state, reused across Serve calls
	// serveRank is serveOn bound once; the call's arrivals, logits and
	// report are handed to it through the fields below.
	serveRank func(w *dist.Worker) error
	arrivals  []float64
	logits    *tensor.Matrix
	rep       *Report
}

// forwardOnly is implemented by families that run a Run of nothing but
// forwards cheaper when told so (tesseract, and optimus through it): between
// ForwardOnly(true) and the return of the enclosing Run no rank writes a
// parameter. Serve is such a Run; Session.EvalLogits, the oracle served
// logits are compared with, deliberately is not.
type forwardOnly interface{ ForwardOnly(on bool) }

// NewServer builds the session (per-rank models drawn from ModelConfig.Seed,
// so every rank and every independently built reference shard the same
// weights) and the per-rank clock agreement. tc configures TrainSteps;
// a train batch the layout cannot use is TrainSteps' error, not NewServer's.
func NewServer(l parallel.Layout, ds *vit.Dataset, mcfg vit.ModelConfig, tc vit.TrainConfig, cfg Config) (*Server, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(ds.Test) == 0 {
		return nil, fmt.Errorf("serve: dataset has no test samples to serve")
	}
	sess, err := vit.NewSession(nil, l, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	s := &Server{
		Session: sess, cfg: cfg, ds: ds, mcfg: mcfg,
		unit:   sess.Layout().RowShards(),
		sync:   make([]*parallel.ClockSync, sess.Layout().Ranks),
		traces: make([]trace, sess.Layout().Ranks),
	}
	s.serveRank = s.serveOn
	for r := range s.sync {
		s.sync[r] = parallel.NewClockSync(s.Cluster())
	}
	return s, nil
}

// TrainSteps advances the model n steps down the trainer's exact step path
// (vit.Session.Train), so a served model is bitwise the model an equally
// trained trainer holds.
func (s *Server) TrainSteps(n int) error {
	if n <= 0 {
		return nil
	}
	_, err := s.Train(n)
	return err
}

// Serve drains one arrival trace through the queue, the batcher and the
// model, and returns the full latency report. Request i is served the test
// sample i mod len(Test); ragged batches are padded up to the family's row
// divisibility unit by repeating the batch's first sample — exactly the
// trainer's eval-tail treatment — and padding rows are discarded. Each rank
// assembles only the block of the padded batch its family's Slice says it
// holds. The whole trace is one forward-only Run (see forwardOnly).
func (s *Server) Serve(a ArrivalConfig) (*Report, error) {
	arrivals, err := a.timesInto(s.arrivals)
	if err != nil {
		return nil, err
	}
	s.arrivals = arrivals
	s.logits = nil
	if s.cfg.KeepLogits {
		s.logits = tensor.New(len(arrivals), s.mcfg.Classes)
	}
	// Fresh timing window: durations are differences of synced clocks, and
	// starting every trace at t=0 keeps them bit-identical across repeated
	// Serve calls (a large clock base would perturb the low-order bits).
	s.Cluster().ResetClocks()
	err = s.Cluster().Run(s.serveRank)
	rep, logits := s.rep, s.logits
	s.rep, s.logits = nil, nil // the caller's now
	if err != nil {
		return nil, err
	}
	rep.Logits = logits
	return rep, nil
}

// serveOn is one rank's share of a Serve call. Every rank runs the identical
// event loop; rank 0 stamps each request's predicted class into its trace
// and reports it.
func (s *Server) serveOn(w *dist.Worker) error {
	r := w.Rank()
	model, sync, seq, tr := s.Model(r), s.sync[r], s.mcfg.SeqLen, &s.traces[r]
	if f, ok := model.F.(forwardOnly); ok {
		f.ForwardOnly(true)
		defer f.ForwardOnly(false)
	}
	prev := sync.Now(w)
	tr.run(s.cfg, s.arrivals, func(ids []int) (int, float64) {
		padded := (len(ids) + s.unit - 1) / s.unit * s.unit
		sl := model.F.Slice(padded*seq, s.mcfg.PatchDim)
		x := w.Workspace().GetUninitMatch(sl.Rows, sl.Cols, false)
		for i := 0; i < sl.Rows; i++ {
			j, tok := (sl.Row0+i)/seq, (sl.Row0+i)%seq
			id := ids[0] // padding repeats the batch head's sample
			if j < len(ids) {
				id = ids[j]
			}
			copy(x.Row(i), s.ds.Test[id%len(s.ds.Test)].Patches.Row(tok)[sl.Col0:sl.Col0+sl.Cols])
		}
		out := model.Forward(x)
		if r == 0 {
			for j, id := range ids {
				tr.req[id].Class = argmax(out.Row(j))
				if s.logits != nil {
					copy(s.logits.Row(id), out.Row(j))
				}
			}
		}
		model.F.EndStep()
		t := sync.Now(w)
		dur := t - prev
		prev = t
		return padded, dur
	})
	if r == 0 {
		s.rep = tr.report()
	}
	return nil
}

func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}
