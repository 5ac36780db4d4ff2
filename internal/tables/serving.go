package tables

import (
	"fmt"
	"strings"

	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/serve"
)

// ServingPoint is one family/layout row of the serving study: tail
// latencies and admission counts from a paced Poisson trace, plus the
// saturated throughput the pacing was derived from.
type ServingPoint struct {
	// Layout is the family arrangement that served.
	Layout parallel.Layout
	// Saturated is the layout's measured saturated throughput in requests
	// per simulated second (burst probe, full batches).
	Saturated float64
	// Rate is the offered Poisson rate of the paced trace (0.7×Saturated,
	// so queues form without melting down).
	Rate float64
	// Requests, Rejected and Batches count the paced trace.
	Requests, Rejected, Batches int
	// MeanBatch is the average real batch size the forwards ran at.
	MeanBatch float64
	// P50, P95 and P99 are enqueue→reply latency percentiles in simulated
	// seconds.
	P50, P95, P99 float64
	// Throughput is the paced trace's completed requests per simulated
	// second.
	Throughput float64
}

// ServingStudy serves the small trained ViT under every default family
// layout through the continuous batcher and reports p50/p95/p99 latency,
// throughput and admission behaviour per layout — the serving twin of the
// cross-family parity study. Each layout is probed saturated first; the
// paced trace then offers 70% of that rate, so the batcher sees both
// coalescing slack and occasional backlog.
func ServingStudy(layouts []parallel.Layout) ([]ServingPoint, error) {
	ds, mcfg, tc := studyFixture()
	cfg := serve.Config{MaxBatch: 8, LatencyBudget: 2e-3, QueueDepth: 16}
	var out []ServingPoint
	for _, raw := range layouts {
		l, err := parallel.Validate(raw)
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(l, ds, mcfg, tc, cfg)
		if err != nil {
			return nil, fmt.Errorf("tables: serving study %s: %w", l, err)
		}
		if err := srv.TrainSteps(3); err != nil {
			return nil, fmt.Errorf("tables: serving study %s: %w", l, err)
		}
		probe, err := srv.Serve(serve.Saturated(cfg.QueueDepth))
		if err != nil {
			return nil, fmt.Errorf("tables: serving study %s: %w", l, err)
		}
		rate := 0.7 * probe.Throughput()
		rep, err := srv.Serve(serve.ArrivalConfig{N: 64, Rate: rate, Seed: 2022})
		if err != nil {
			return nil, fmt.Errorf("tables: serving study %s: %w", l, err)
		}
		out = append(out, ServingPoint{
			Layout:    l,
			Saturated: probe.Throughput(),
			Rate:      rate,
			Requests:  len(rep.Requests), Rejected: rep.Rejected, Batches: len(rep.Batches),
			MeanBatch: rep.MeanBatch(),
			P50:       rep.P50(), P95: rep.P95(), P99: rep.P99(),
			Throughput: rep.Throughput(),
		})
	}
	return out, nil
}

// FormatServing renders the serving study.
func FormatServing(points []ServingPoint) string {
	var b strings.Builder
	b.WriteString("Serving study: continuous batching per family/layout (paced at 0.7× saturation)\n")
	fmt.Fprintf(&b, "%-20s %6s | %10s %9s | %4s %4s %6s | %10s %10s %10s | %10s\n",
		"layout", "#GPUs", "sat(r/s)", "rate", "rej", "bat", "meanB", "p50(s)", "p95(s)", "p99(s)", "thru(r/s)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-20s %6d | %10.1f %9.1f | %4d %4d %6.2f | %10.3g %10.3g %10.3g | %10.1f\n",
			p.Layout, p.Layout.Ranks, p.Saturated, p.Rate,
			p.Rejected, p.Batches, p.MeanBatch,
			p.P50, p.P95, p.P99, p.Throughput)
	}
	return b.String()
}

// ServingPlannerPoint is the serving-planner study result: the ranked
// candidates under the serving objective, next to the training winner.
type ServingPlannerPoint struct {
	// Workload is the model searched for.
	Workload plan.Workload
	// Objective is the latency/throughput weighting used.
	Objective plan.ServingObjective
	// Plans is the full ranked candidate list.
	Plans []plan.ServingPlan
	// TrainingBest names the layout plain plan.Search (the training
	// objective) ranks first on the same workload — the comparison the
	// serving objective exists to beat.
	TrainingBest string
}

// Best returns the top-ranked serving plan.
func (p ServingPlannerPoint) Best() plan.ServingPlan { return p.Plans[0] }

// ServingPlannerStudy searches the Table 1 problem under the serving
// objective at a 64-rank budget and under the training objective beside it.
// A serving price is already what the server's batcher measures
// (plan.ServingPredicted).
func ServingPlannerStudy(opts Options) (*ServingPlannerPoint, error) {
	if err := opts.check(); err != nil {
		return nil, err
	}
	w, err := opts.apply(plan.Workload{Batch: 16, Hidden: 3072, Heads: 64}).WithDefaults()
	if err != nil {
		return nil, err
	}
	topo := plan.Topology{RankBudget: 64, ExactRanks: true}
	o := plan.ServingObjective{}
	plans, err := plan.SearchServing(w, topo, DefaultAlgos(), o)
	if err != nil {
		return nil, fmt.Errorf("tables: serving planner study: %w", err)
	}
	trained, err := plan.Search(w, topo, DefaultAlgos())
	if err != nil {
		return nil, fmt.Errorf("tables: serving planner study: training search: %w", err)
	}
	return &ServingPlannerPoint{Workload: w, Objective: o, Plans: plans, TrainingBest: trained[0].String()}, nil
}

// FormatServingPlanner renders the serving-planner study: the serving
// ranking next to the training winner.
func FormatServingPlanner(pt *ServingPlannerPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving-objective planner (Table 1 problem, 64 ranks; forward-only)\n")
	fmt.Fprintf(&b, "  serving best: %s   training best: %s\n\n", pt.Best(), pt.TrainingBest)
	b.WriteString(plan.FormatServingPlans("  Ranked serving candidates (top 8)", pt.Plans, 8))
	return b.String()
}
