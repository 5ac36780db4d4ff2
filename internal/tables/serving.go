package tables

import (
	"fmt"
	"strings"

	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/vit"
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

// servingFixture is the small real-data ViT the study serves — the same
// model BenchmarkTesseractStep trains.
func servingFixture() (*vit.Dataset, vit.ModelConfig, vit.TrainConfig) {
	dcfg := vit.DataConfig{Classes: 4, ImageSize: 8, Channels: 3, PatchSize: 4, Train: 8, Test: 4, Seed: 11}
	ds := vit.NewDataset(dcfg)
	mcfg := vit.ModelConfig{
		PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(),
		Hidden: 16, Heads: 4, Layers: 2, Classes: dcfg.Classes, Seed: 3,
	}
	tc := vit.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	return ds, mcfg, tc
}

// ServingStudy serves the small trained ViT under every default family
// layout through the continuous batcher and reports p50/p95/p99 latency,
// throughput and admission behaviour per layout — the serving twin of the
// cross-family parity study. Each layout is probed saturated first; the
// paced trace then offers 70% of that rate, so the batcher sees both
// coalescing slack and occasional backlog.
func ServingStudy(layouts []parallel.Layout) ([]ServingPoint, error) {
	ds, mcfg, tc := servingFixture()
	cfg := serve.Config{MaxBatch: 8, LatencyBudget: 2e-3, QueueDepth: 16}
	var out []ServingPoint
	for _, raw := range layouts {
		l, err := raw.Normalize()
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
// candidates under the serving objective and the replayed validations of
// the leaders.
type ServingPlannerPoint struct {
	// Workload is the model searched for.
	Workload plan.Workload
	// Objective is the latency/throughput weighting used.
	Objective plan.ServingObjective
	// Plans is the full ranked candidate list.
	Plans []plan.ServingPlan
	// Validations replays the top candidates through serve.MeasureLayout.
	Validations []plan.ServingValidation
	// TrainingBest names the layout plain plan.Search (the training
	// objective) ranks first on the same workload — the comparison the
	// serving objective exists to beat.
	TrainingBest string
}

// Best returns the top-ranked serving plan.
func (p ServingPlannerPoint) Best() plan.ServingPlan { return p.Plans[0] }

// ServingPlannerStudy searches the Table 1 problem under the serving
// objective at a 64-rank budget and validates the leaders through
// serve.MeasureLayout — predicted-vs-measured for the forward-only serving
// path, the same loop PlannerStudy closes for training. topN bounds the
// replayed candidates (default 3 when zero).
func ServingPlannerStudy(topN int, opts Options) (*ServingPlannerPoint, error) {
	if topN <= 0 {
		topN = 3
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	w := plan.Workload{Batch: 16, SeqLen: opts.SeqLen, Hidden: 3072, Heads: 64, Layers: opts.Layers}
	topo := plan.Topology{Cost: opts.Cost, GPUsPerNode: opts.GPUsPerNode, RankBudget: 64, ExactRanks: true}
	o := plan.ServingObjective{}
	plans, err := plan.SearchServing(w, topo, DefaultAlgos(), o)
	if err != nil {
		return nil, fmt.Errorf("tables: serving planner study: %w", err)
	}
	vs, err := plan.ValidateServingTop(plans, topN, serve.Measurer(w, topo))
	if err != nil {
		return nil, fmt.Errorf("tables: serving planner study: %w", err)
	}
	trained, err := plan.Search(w, topo, DefaultAlgos())
	if err != nil {
		return nil, fmt.Errorf("tables: serving planner study: training search: %w", err)
	}
	return &ServingPlannerPoint{Workload: w, Objective: o, Plans: plans, Validations: vs, TrainingBest: trained[0].String()}, nil
}

// FormatServingPlanner renders the serving-planner study: the serving
// ranking next to the training winner, then the validated leaders.
func FormatServingPlanner(pt *ServingPlannerPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving-objective planner (Table 1 problem, 64 ranks; forward-only)\n")
	fmt.Fprintf(&b, "  serving best: %s   training best: %s\n\n", pt.Best(), pt.TrainingBest)
	b.WriteString(plan.FormatServingPlans("  Ranked serving candidates (top 8)", pt.Plans, 8))
	b.WriteString("\n")
	b.WriteString(plan.FormatServingValidations("  Validated leaders (serve.MeasureLayout replay)", pt.Validations))
	return b.String()
}
