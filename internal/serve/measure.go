package serve

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// measureBatches is how many batches each measurement trace averages over.
// Simulated clocks have no warm-up, so a short trace is exact.
const measureBatches = 3

// MeasureLayout replays one serving candidate for real: it builds the
// candidate's layout on a fresh simulated cluster, stacks the workload's
// Transformer blocks in phantom mode — the parallel.Stack the planner's
// serving scorer replays — and drives two saturated traces through the real
// batcher event loop with clock-synced completions: one at the workload's
// full batch (full-batch latency and saturated throughput) and one at the
// grid's row-shard minimum (interactive latency). It is plan.Validate's
// serving twin; wrap it with Measurer to get a plan.ServingMeasurer. The
// cluster is sized from the layout, so t's RankBudget is not read; a
// workload the layout cannot split is refused before any cluster is built.
func MeasureLayout(p plan.ServingPlan, w plan.Workload, t plan.Topology) (plan.ServingMeasurement, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return plan.ServingMeasurement{}, err
	}
	l, err := parallel.Validate(p.Grid)
	if err != nil {
		return plan.ServingMeasurement{}, err
	}
	t.RankBudget = l.Ranks
	t, err = t.WithDefaults()
	if err != nil {
		return plan.ServingMeasurement{}, err
	}
	unit := l.RowShards()
	if unit > w.Batch {
		return plan.ServingMeasurement{}, fmt.Errorf("serve: layout %s needs %d sequences per forward, workload batches %d", l, unit, w.Batch)
	}
	full, err := measureTrace(l, w, t, w.Batch)
	if err != nil {
		return plan.ServingMeasurement{}, err
	}
	min := full
	if unit != w.Batch {
		min, err = measureTrace(l, w, t, unit)
		if err != nil {
			return plan.ServingMeasurement{}, err
		}
	}
	out := plan.ServingMeasurement{MinLatency: min.meanService(), FullLatency: full.meanService()}
	if full.report.SimSeconds > 0 {
		out.Throughput = full.report.Throughput()
	}
	return out, nil
}

// Measurer binds a workload and topology into the plan.ServingMeasurer
// closure ValidateServingTop replays candidates through.
func Measurer(w plan.Workload, t plan.Topology) plan.ServingMeasurer {
	return func(p plan.ServingPlan) (plan.ServingMeasurement, error) {
		return MeasureLayout(p, w, t)
	}
}

// measured is one saturated trace's outcome.
type measured struct {
	report *Report
}

// meanService averages the batch service durations.
func (m measured) meanService() float64 {
	if len(m.report.Batches) == 0 {
		return 0
	}
	var sum float64
	for _, b := range m.report.Batches {
		sum += b.Done - b.Close
	}
	return sum / float64(len(m.report.Batches))
}

// measureTrace runs measureBatches saturated batches of `batch` requests
// (one sequence each) through the phantom layer stack on a fresh cluster
// (parallel.NewPhantomReplay, which refuses an activation the layout cannot
// split before the cluster is built). Every rank runs the identical event
// loop; service durations come from the all-gathered clock maximum, exactly
// as in Server.Serve.
func measureTrace(l parallel.Layout, w plan.Workload, t plan.Topology, batch int) (measured, error) {
	// Saturated probe: zero budget seals batches as soon as the server is
	// free, and the queue holds the whole burst so nothing is rejected.
	cfg := Config{MaxBatch: batch, LatencyBudget: 0, QueueDepth: measureBatches * batch}
	arrivals, err := Saturated(measureBatches * batch).Times()
	if err != nil {
		return measured{}, err
	}
	rp, err := parallel.NewPhantomReplay(dist.New, dist.Config{Machine: t.Machine()},
		l, batch, w.SeqLen, w.Hidden, w.Heads, w.Layers)
	if err != nil {
		return measured{}, err
	}
	c := rp.Cluster()
	defer c.Close()
	unit := l.RowShards()
	var rep *Report
	_, err = rp.Phase(func(st *parallel.Stack) {
		f := st.F
		wk := f.Worker()
		sync := newClockSync(c)
		prev := sync.now(wk)
		tr := runTrace(cfg, arrivals, func(ids []int) (int, float64) {
			padded := (len(ids) + unit - 1) / unit * unit
			sl := f.Slice(padded*w.SeqLen, w.Hidden)
			st.Forward(tensor.NewPhantom(sl.Rows, sl.Cols))
			f.EndStep()
			now := sync.now(wk)
			dur := now - prev
			prev = now
			return padded, dur
		})
		if wk.Rank() == 0 {
			rep = tr.report()
		}
	})
	if err != nil {
		return measured{}, err
	}
	return measured{report: rep}, nil
}
