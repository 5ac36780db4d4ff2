package plan

import (
	"fmt"
	"strings"
)

// ServingObjective weights the two things a serving layout trades off:
// interactive latency — the forward time of the smallest batch the layout
// can run, one request padded up to its row-shard unit — against
// steady-state cost per request — the forward time of a full batch divided
// by its size. Training's step-time ranking disappears entirely: no
// backward, no recompute, no gradient traffic.
type ServingObjective struct {
	// LatencyWeight multiplies the min-batch forward seconds (default 1).
	LatencyWeight float64
	// ThroughputWeight multiplies the full-batch per-request service
	// seconds (default 1).
	ThroughputWeight float64
}

// WithDefaults fills a fully zero objective with equal weights and rejects
// negative ones.
func (o ServingObjective) WithDefaults() (ServingObjective, error) {
	if o.LatencyWeight == 0 && o.ThroughputWeight == 0 {
		o.LatencyWeight, o.ThroughputWeight = 1, 1
	}
	if o.LatencyWeight < 0 || o.ThroughputWeight < 0 {
		return o, fmt.Errorf("plan: serving objective weights must be non-negative, got %+v", o)
	}
	return o, nil
}

// ServingPredicted is the replayed serving score of one candidate. The
// workload's Batch is the batcher's full batch; MinBatch is the smallest
// batch the layout can run (parallel.Layout.RowShards — one request padded
// up). A latency is what serve.Server's batcher measures for a batch of that
// size: the forward plus the clock agreement that ends every served batch
// (parallel.Replay.Forward), held to the batcher by
// serve.TestEveryServingPredictionEqualsItsMeasurement.
type ServingPredicted struct {
	// MinBatch is the padded interactive batch size in sequences.
	MinBatch int
	// MinLatency is the predicted service seconds at MinBatch — what a
	// lone request pays.
	MinLatency float64
	// FullLatency is the predicted service seconds at the full batch.
	FullLatency float64
	// Throughput is the predicted saturated service rate, Batch /
	// FullLatency, in requests per second.
	Throughput float64
	// MemoryBytes is what the heaviest rank of the full-batch forward
	// replay held: its weights once — no gradients, no optimiser state —
	// the input block and the forward's workspace high-water.
	MemoryBytes int64
}

// ServingPlan is one ranked serving candidate.
type ServingPlan struct {
	// Grid is the candidate layout, as in Plan.
	Grid
	// Predicted is the replayed serving score.
	Predicted ServingPredicted
	// Score is the weighted objective the ranking sorted by (lower is
	// better).
	Score float64
}

// SearchServing enumerates every feasible candidate exactly
// like Search, but scores each for serving: the family's layer stack is
// replayed forward-only at two batch sizes — the grid's minimum and the
// workload's full batch — and the weighted objective ranks the list
// (ascending; ties prefer fewer ranks, then less memory). The workload's
// Batch is the serving batcher's MaxBatch. The memory filter reads the
// full-batch replay's footprint: an inference process holds its weights once
// and no gradients or optimiser state.
func SearchServing(w Workload, t Topology, algos []Algo, o ServingObjective) ([]ServingPlan, error) {
	o, err := o.WithDefaults()
	if err != nil {
		return nil, err
	}
	// A layout whose row-shard unit exceeds the batch cannot fit even one
	// padded request per forward.
	admit := func(w Workload, c Plan) bool { return c.RowShards() <= w.Batch }
	return search(w, t, algos, " for serving", admit, func(w Workload, t Topology, c Plan) (ServingPlan, float64, int64, error) {
		l := c.Grid
		pred := ServingPredicted{MinBatch: l.RowShards()}
		var err error
		if pred.MinLatency, _, err = priceForward(w, pred.MinBatch, l, t); err != nil {
			return ServingPlan{}, 0, 0, err
		}
		if pred.FullLatency, pred.MemoryBytes, err = priceForward(w, w.Batch, l, t); err != nil {
			return ServingPlan{}, 0, 0, err
		}
		if pred.FullLatency > 0 {
			pred.Throughput = float64(w.Batch) / pred.FullLatency
		}
		p := ServingPlan{
			Grid:      c.Grid,
			Predicted: pred,
			Score:     o.LatencyWeight*pred.MinLatency + o.ThroughputWeight*pred.FullLatency/float64(w.Batch),
		}
		return p, p.Score, pred.MemoryBytes, nil
	})
}

// FormatServingPlans renders a ranked serving-plan list. n limits the rows
// (0 = all).
func FormatServingPlans(title string, plans []ServingPlan, n int) string {
	if n <= 0 || n > len(plans) {
		n = len(plans)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %-12s %-9s %5s | %5s %11s %11s %11s | %10s %10s\n",
		"#", "family", "shape", "ranks", "minB", "min-lat(s)", "full-lat(s)", "thru(r/s)", "score", "mem/rank")
	b.WriteString(strings.Repeat("-", 108) + "\n")
	for i, p := range plans[:n] {
		pr := p.Predicted
		fmt.Fprintf(&b, "%4d %-12s %-9s %5d | %5d %11.5f %11.5f %11.1f | %10.5f %10s\n",
			i+1, p.Family, p.Shape(), p.Ranks,
			pr.MinBatch, pr.MinLatency, pr.FullLatency, pr.Throughput, p.Score, FormatBytes(pr.MemoryBytes))
	}
	return b.String()
}
