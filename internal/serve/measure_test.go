package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"

	// The serving search lists seqpar layouts too; server_test.go registers
	// the other families.
	_ "repro/internal/seqpar"
)

// measureBatches is how many batches each measured trace serves. Simulated
// clocks have no warm-up, so a short trace is exact.
const measureBatches = 3

// measureLayout serves a saturated trace of measureBatches batches of batch
// requests (one sequence each) the way Server.Serve runs one, over the
// workload's phantom block stack: a fresh full cluster sized to the layout
// (t's RankBudget is not read), the real batcher on every rank, and
// parallel.ClockSync ending every batch, service durations taken from its
// agreed clocks. A workload the layout cannot split is refused before the
// cluster is built (parallel.NewPhantomReplay).
func measureLayout(l parallel.Layout, w plan.Workload, t plan.Topology, batch int) (*Report, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return nil, err
	}
	if l, err = parallel.Validate(l); err != nil {
		return nil, err
	}
	t.RankBudget = l.Ranks
	if t, err = t.WithDefaults(); err != nil {
		return nil, err
	}
	// Saturated: a zero budget seals batches as soon as the server is free,
	// and the queue holds the whole burst, so nothing is rejected.
	cfg := Config{MaxBatch: batch, QueueDepth: measureBatches * batch}
	arrivals, err := Saturated(measureBatches * batch).Times()
	if err != nil {
		return nil, err
	}
	rp, err := parallel.NewPhantomReplay(dist.New, dist.Config{Machine: t.Machine()},
		l, batch, w.SeqLen, w.Hidden, w.Heads, w.Layers)
	if err != nil {
		return nil, err
	}
	c := rp.Cluster()
	defer c.Close()
	unit := l.RowShards()
	var rep *Report
	_, err = rp.Phase(func(st *parallel.Stack) {
		f := st.F
		wk := f.Worker()
		sync := parallel.NewClockSync(c)
		prev := sync.Now(wk)
		tr := runTrace(cfg, arrivals, func(ids []int) (int, float64) {
			padded := (len(ids) + unit - 1) / unit * unit
			sl := f.Slice(padded*w.SeqLen, w.Hidden)
			st.Forward(tensor.NewPhantom(sl.Rows, sl.Cols))
			f.EndStep()
			now := sync.Now(wk)
			dur := now - prev
			prev = now
			return padded, dur
		})
		if wk.Rank() == 0 {
			rep = tr.report()
		}
	})
	return rep, err
}

// TestEveryServingPredictionEqualsItsMeasurement: a serving price is what the
// server's batcher measures. Every candidate plan.SearchServing lists for the
// Table 1 serving workload within 64 ranks — on four GPUs per node, where
// every candidate is priced solo, and on six, where meshes that straddle
// nodes are priced on the full cluster — is served saturated at its minimum
// and at the full batch, and every batch's service time equals the price
// within 1e-12 relative.
func TestEveryServingPredictionEqualsItsMeasurement(t *testing.T) {
	w := plan.Workload{Batch: 16, Hidden: 3072, Heads: 64}
	for _, gpus := range []int{4, 6} {
		topo := plan.Topology{RankBudget: 64, GPUsPerNode: gpus}
		plans, err := plan.SearchServing(w, topo, []plan.Algo{"tesseract", "megatron", "seqpar"}, plan.ServingObjective{})
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for _, p := range plans {
			for _, c := range []struct {
				batch int
				price float64
			}{{p.Predicted.MinBatch, p.Predicted.MinLatency}, {w.Batch, p.Predicted.FullLatency}} {
				rep, err := measureLayout(p.Grid, w, topo, c.batch)
				if err != nil {
					t.Fatalf("%s at batch %d, %d GPUs per node: %v", p, c.batch, gpus, err)
				}
				if len(rep.Batches) != measureBatches {
					t.Fatalf("%s at batch %d: served %d batches, want %d", p, c.batch, len(rep.Batches), measureBatches)
				}
				for i, b := range rep.Batches {
					got := b.Done - b.Close
					rel := math.Abs(got-c.price) / c.price
					worst = max(worst, rel)
					if !(rel <= 1e-12) {
						t.Errorf("%s, %d GPUs per node, batch %d #%d: served in %.9g s, priced %.9g s (relative error %.3g)",
							p, gpus, c.batch, i, got, c.price, rel)
					}
				}
			}
		}
		t.Logf("%d GPUs per node: %d candidates, worst relative error %.3g", gpus, len(plans), worst)
	}
}

// TestMeasureLayoutRefusesUnsplittable: a layout that cannot split the
// workload — its width over the mesh side, its heads over the shards — is
// refused before any cluster is built by parallel.CheckActivation, the
// refusal the planner's replay shares, never a worker panic recovered from
// inside the trace.
func TestMeasureLayoutRefusesUnsplittable(t *testing.T) {
	for _, tc := range []struct {
		l      parallel.Layout
		hidden int
		heads  int
		want   string
	}{
		{parallel.Layout{Family: "tesseract", Q: 4, D: 1}, 18, 2, "hidden width 18 4 ways"},
		{parallel.Layout{Family: "megatron", Ranks: 4}, 16, 2, "into 2 heads over 4 shards"},
	} {
		w := plan.Workload{Batch: 16, SeqLen: 8, Hidden: tc.hidden, Heads: tc.heads, Layers: 1}
		_, err := measureLayout(tc.l, w, plan.Topology{RankBudget: 16}, w.Batch)
		if err == nil || strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s at hidden %d, %d heads: want the refusal %q, got %v", tc.l, tc.hidden, tc.heads, tc.want, err)
		}
	}
}

// TestMeasureLayoutZeroTopology: the measurement sizes its cluster from the
// layout, so a zero Topology measures — as plan.Price prices — instead of
// failing on the rank budget it never reads.
func TestMeasureLayoutZeroTopology(t *testing.T) {
	w := plan.Workload{Batch: 8, SeqLen: 16, Hidden: 16, Heads: 4, Layers: 1}
	l := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	rep, err := measureLayout(l, w, plan.Topology{}, w.Batch)
	if err != nil {
		t.Fatalf("measureLayout: %v", err)
	}
	if rep.SimSeconds <= 0 || rep.Throughput() <= 0 {
		t.Fatalf("empty measurement %+v", rep)
	}
	b, err := plan.Price(w, l, plan.Topology{})
	if err != nil {
		t.Fatalf("plan.Price: %v", err)
	}
	if b.Step() <= 0 {
		t.Fatalf("empty price %+v", b)
	}
}
