package tables

import (
	"fmt"
	"strings"

	"repro/internal/claims"
	"repro/internal/megatron"
	"repro/internal/optimus"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/seqpar"
	"repro/internal/tesseract"
)

// DefaultAlgos bundles the four built-in algorithm-family descriptors the
// planner searches over — the three schemes Tables 1 and 2 compare plus
// sequence parallelism, which wins only under tight memory budgets.
func DefaultAlgos() []plan.Algo {
	return []plan.Algo{
		tesseract.PlanAlgo(),
		optimus.PlanAlgo(),
		megatron.PlanAlgo(),
		seqpar.PlanAlgo(),
	}
}

// MeasurePlan returns the plan.Measurer that replays candidates the way
// RunRow replays a table row: the full cluster, every rank. The workload's
// sequence length, layer count and recompute setting override the options so
// both sides of the predicted-vs-measured comparison describe the same
// execution. The measurer keeps no state between calls — each builds its own
// cluster — so it may be called from several goroutines at once.
func MeasurePlan(w plan.Workload, opts Options) plan.Measurer {
	w, werr := w.WithDefaults()
	opts.SeqLen = w.SeqLen
	opts.Layers = w.Layers
	opts.NoRecompute = w.NoRecompute
	return func(p plan.Plan) (plan.Measurement, error) {
		if werr != nil {
			return plan.Measurement{}, werr
		}
		l, err := parallel.Validate(p.Layout())
		if err != nil {
			return plan.Measurement{}, err
		}
		st, err := timeStep(l, Row{Batch: w.Batch, Hidden: w.Hidden, Heads: w.Heads}, opts)
		return plan.Measurement{Forward: st.Forward, Backward: st.Backward}, err
	}
}

// PlannerScenario is one workload the planner study searches: a label, the
// workload itself, and the layout the paper's tables crown as best at the
// scenario's rank budget.
type PlannerScenario struct {
	// Name labels the scenario in the study output.
	Name string
	// Workload is the model being planned for.
	Workload plan.Workload
	// RankBudget is the processor budget (64 for the paper's headline
	// comparisons).
	RankBudget int
	// PaperBest is the shape of the winning row in the paper's table,
	// e.g. "[4,4,4]".
	PaperBest string
}

// PlannerScenarios returns the two headline 64-GPU problems: Table 1's
// strong-scaling model (batch 16 as in its [4,4,4] row) and Table 2's
// weak-scaling model. In both the paper's best layout is Tesseract
// [4,4,4], which is what the planner must rediscover.
func PlannerScenarios() []PlannerScenario {
	return []PlannerScenario{
		{
			Name:       "Table 1 problem (batch 16, hidden 3072, 64 heads)",
			Workload:   plan.Workload{Batch: 16, Hidden: 3072, Heads: 64},
			RankBudget: 64,
			PaperBest:  "[4,4,4]",
		},
		{
			Name:       "Table 2 problem (batch 768, hidden 4096, 64 heads)",
			Workload:   plan.Workload{Batch: 768, Hidden: 4096, Heads: 64},
			RankBudget: 64,
			PaperBest:  "[4,4,4]",
		},
	}
}

// PlannerPoint is one scenario's study result: the ranked candidates and
// the replayed validations of the leaders.
type PlannerPoint struct {
	// Scenario is the workload searched.
	Scenario PlannerScenario
	// Plans is the full ranked candidate list.
	Plans []plan.Plan
	// Validations replays the top candidates (predicted vs measured).
	Validations []plan.Validation
}

// Best returns the top-ranked plan.
func (p PlannerPoint) Best() plan.Plan { return p.Plans[0] }

// PlannerStudy searches every scenario with the default algorithm families
// and validates the top candidates against the simulated cluster —
// reproducing the paper's best-layout rows from the planner instead of
// hard-coded grids. topN bounds the replayed candidates (default 3 when
// zero).
//
// The leaders of all scenarios are one batch of independent replays
// (replayEach), each validated with Plan.Validate. plan.ValidateTop is not
// made concurrent instead: it calls its Measurer one plan at a time, in rank
// order, and callers hand it closures with state; what it would return from
// MeasurePlan is what this returns.
func PlannerStudy(scenarios []PlannerScenario, topN int, opts Options) ([]PlannerPoint, error) {
	if topN <= 0 {
		topN = 3
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	type leader struct {
		scenario int
		plan     plan.Plan
	}
	var leaders []leader
	out := make([]PlannerPoint, len(scenarios))
	for i, sc := range scenarios {
		topo := plan.Topology{Cost: opts.Cost, GPUsPerNode: opts.GPUsPerNode, RankBudget: sc.RankBudget, ExactRanks: true}
		plans, err := plan.Search(sc.Workload, topo, DefaultAlgos())
		if err != nil {
			return nil, fmt.Errorf("tables: planner study %q: %w", sc.Name, err)
		}
		out[i] = PlannerPoint{Scenario: sc, Plans: plans}
		for _, p := range plans[:min(topN, len(plans))] {
			leaders = append(leaders, leader{i, p})
		}
	}
	vs, err := replayEach(len(leaders), func(k int) (plan.Validation, error) {
		l, sc := leaders[k], scenarios[leaders[k].scenario]
		v, err := l.plan.Validate(MeasurePlan(sc.Workload, opts))
		if err != nil {
			return v, fmt.Errorf("tables: planner study %q: %w", sc.Name, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	for k, l := range leaders {
		out[l.scenario].Validations = append(out[l.scenario].Validations, vs[k])
	}
	return out, nil
}

// FormatPlannerStudy renders a planner study: per scenario the paper's
// best layout next to the planner's, then the validated leaders with their
// predicted-vs-measured errors and (for mesh layouts) the §3.1 per-matmul
// transfer count the ranking agrees with.
func FormatPlannerStudy(points []PlannerPoint) string {
	var b strings.Builder
	b.WriteString("Auto-parallelism planner vs the paper's best layouts\n")
	for _, pt := range points {
		best := pt.Best()
		fmt.Fprintf(&b, "\n%s (budget %d ranks)\n", pt.Scenario.Name, pt.Scenario.RankBudget)
		fmt.Fprintf(&b, "  paper best: Tesseract %s   planner best: %s\n", pt.Scenario.PaperBest, best)
		fmt.Fprintf(&b, "  %-22s | %9s %9s %7s | %14s\n", "candidate", "pred(s)", "meas(s)", "err", "§3.1 transfers")
		for _, v := range pt.Validations {
			transfers := "-"
			if g := v.Plan.Grid; g.Q > 0 {
				transfers = fmt.Sprintf("%.0f", claims.TesseractTransfersGrid(float64(g.Q), float64(max(g.D, 1))))
			}
			fmt.Fprintf(&b, "  %-22s | %9.4f %9.4f %6.1f%% | %14s\n",
				v.Plan.String(), v.Plan.Predicted.Step(), v.Measured.Step(), 100*v.StepErr, transfers)
		}
	}
	return b.String()
}
