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
// through the same vit.DistModel path the trainer evaluates with —
// workspace-pooled, so steady-state serving stays out of the allocator
// exactly like steady-state training. The session owns the model, the
// optimiser, the TrainConfig defaults and their validation, so the served
// weights are the trainer's.
type Server struct {
	*vit.Session
	cfg  Config
	ds   *vit.Dataset
	mcfg vit.ModelConfig

	unit int
	sync []*clockSync
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
		unit: sess.Layout().RowShards(),
		sync: make([]*clockSync, sess.Layout().Ranks),
	}
	for r := range s.sync {
		s.sync[r] = newClockSync(s.Cluster())
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

// clockSync agrees on the current instant across a cluster: every rank
// contributes its simulated clock as data and takes the max locally, so all
// ranks compute the identical value. The gather itself is a batch's
// completion barrier and is charged to the clock like any collective. One
// per rank: the world group is cached (Group() allocates its key) and the
// two blocks are the gather's operands.
type clockSync struct {
	world     *dist.Group
	clk, clks *tensor.Matrix // 1×1 own clock, [world,1] gathered
}

func newClockSync(c *dist.Cluster) *clockSync {
	return &clockSync{world: c.WorldGroup(), clk: tensor.New(1, 1), clks: tensor.New(c.WorldSize(), 1)}
}

func (cs *clockSync) now(w *dist.Worker) float64 {
	if cs.clks.Rows == 1 {
		return w.Clock()
	}
	cs.clk.Data[0] = w.Clock()
	cs.world.AllGatherInto(w, cs.clk, cs.clks)
	var m float64
	for _, v := range cs.clks.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Serve drains one arrival trace through the queue, the batcher and the
// model, and returns the full latency report. Request i is served the test
// sample i mod len(Test); ragged batches are padded up to the family's row
// divisibility unit by repeating the batch's first sample — exactly the
// trainer's eval-tail treatment — and padding rows are discarded. Each rank
// assembles only the block of the padded batch its family's Slice says it
// holds. The whole trace is one forward-only Run (see forwardOnly).
func (s *Server) Serve(a ArrivalConfig) (*Report, error) {
	arrivals, err := a.Times()
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(arrivals))
	var logits *tensor.Matrix
	if s.cfg.KeepLogits {
		logits = tensor.New(len(arrivals), s.mcfg.Classes)
	}
	var rep *Report
	// Fresh timing window: durations are differences of synced clocks, and
	// starting every trace at t=0 keeps them bit-identical across repeated
	// Serve calls (a large clock base would perturb the low-order bits).
	s.Cluster().ResetClocks()
	err = s.Cluster().Run(func(w *dist.Worker) error {
		r := w.Rank()
		model, sync, seq := s.Model(r), s.sync[r], s.mcfg.SeqLen
		if f, ok := model.F.(forwardOnly); ok {
			f.ForwardOnly(true)
			defer f.ForwardOnly(false)
		}
		prev := sync.now(w)
		tr := runTrace(s.cfg, arrivals, func(ids []int) (int, float64) {
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
					classes[id] = argmax(out.Row(j))
					if logits != nil {
						copy(logits.Row(id), out.Row(j))
					}
				}
			}
			model.F.EndStep()
			t := sync.now(w)
			dur := t - prev
			prev = t
			return padded, dur
		})
		if r == 0 {
			rep = tr.report()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.Requests {
		if !rep.Requests[i].Rejected {
			rep.Requests[i].Class = classes[i]
		}
	}
	rep.Logits = logits
	return rep, nil
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
