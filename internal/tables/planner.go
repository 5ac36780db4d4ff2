package tables

import (
	"fmt"
	"strings"

	"repro/internal/parallel"
	"repro/internal/plan"

	// The families DefaultAlgos and the table rows name register themselves.
	_ "repro/internal/megatron"
	_ "repro/internal/optimus"
	_ "repro/internal/seqpar"
	_ "repro/internal/tesseract"
)

// DefaultAlgos names the families the planner searches: Tesseract, whose
// depth-1 meshes are Optimus' schedule and are priced once, under
// Tesseract's name; Megatron-LM; and sequence parallelism, which wins only
// under tight memory budgets.
func DefaultAlgos() []plan.Algo {
	return []plan.Algo{"tesseract", "megatron", "seqpar"}
}

// MeasurePlan returns the plan.Measurer that replays candidates the way
// RunRow replays a table row: plan.Price of w under the options on the
// Meluxina machine, on the cluster it picks (rank 0 alone wherever that is
// exact). So a validation of a plan searched for the same workload compares
// Price with Price and reads 0; that solo ≡ full cluster is pinned by test.
func MeasurePlan(w plan.Workload, opts Options) plan.Measurer {
	return plan.Measure(opts.apply(w), plan.Topology{})
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
// hard-coded grids. Each scenario is searched and measured under the
// options' sequence length, layer count and recompute setting. topN bounds
// the replayed candidates (default 3 when zero).
//
// The leaders of all scenarios are one batch of independent replays
// (parallel.ReplayEach), each validated with Plan.Validate. plan.ValidateTop is not
// made concurrent instead: it calls its Measurer one plan at a time, in rank
// order, and callers hand it closures with state; what it would return from
// MeasurePlan is what this returns.
func PlannerStudy(scenarios []PlannerScenario, topN int, opts Options) ([]PlannerPoint, error) {
	if topN <= 0 {
		topN = 3
	}
	if err := opts.check(); err != nil {
		return nil, err
	}
	type leader struct {
		scenario int
		plan     plan.Plan
	}
	var leaders []leader
	out := make([]PlannerPoint, len(scenarios))
	for i, sc := range scenarios {
		topo := plan.Topology{RankBudget: sc.RankBudget, ExactRanks: true}
		plans, err := plan.Search(opts.apply(sc.Workload), topo, DefaultAlgos())
		if err != nil {
			return nil, fmt.Errorf("tables: planner study %q: %w", sc.Name, err)
		}
		out[i] = PlannerPoint{Scenario: sc, Plans: plans}
		for _, p := range plans[:min(topN, len(plans))] {
			leaders = append(leaders, leader{i, p})
		}
	}
	vs, err := parallel.ReplayEach(len(leaders), func(k int) (plan.Validation, error) {
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
// predicted-vs-measured errors.
func FormatPlannerStudy(points []PlannerPoint) string {
	var b strings.Builder
	b.WriteString("Auto-parallelism planner vs the paper's best layouts\n")
	for _, pt := range points {
		best := pt.Best()
		fmt.Fprintf(&b, "\n%s (budget %d ranks)\n", pt.Scenario.Name, pt.Scenario.RankBudget)
		fmt.Fprintf(&b, "  paper best: Tesseract %s   planner best: %s\n", pt.Scenario.PaperBest, best)
		fmt.Fprintf(&b, "  %-22s | %9s %9s %7s\n", "candidate", "pred(s)", "meas(s)", "err")
		for _, v := range pt.Validations {
			fmt.Fprintf(&b, "  %-22s | %9.4f %9.4f %6.1f%%\n",
				v.Plan.String(), v.Plan.Predicted.Step(), v.Measured.Step(), 100*v.StepErr)
		}
	}
	return b.String()
}
