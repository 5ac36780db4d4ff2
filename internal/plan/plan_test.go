package plan_test

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/optimus"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tables"
	"repro/internal/tesseract"
)

func algos() []plan.Algo {
	return []plan.Algo{tesseract.PlanAlgo(), optimus.PlanAlgo(), megatron.PlanAlgo()}
}

var table1 = plan.Workload{Batch: 16, Hidden: 3072, Heads: 64}

func TestSearchRanksAllFamiliesSorted(t *testing.T) {
	plans, err := plan.Search(table1, plan.Topology{RankBudget: 64}, algos())
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]int{}
	for _, p := range plans {
		fams[p.Family]++
		if p.Grid.Ranks > 64 {
			t.Fatalf("plan %s uses %d ranks, budget 64", p, p.Grid.Ranks)
		}
	}
	for _, f := range []string{"tesseract", "optimus", "megatron"} {
		if fams[f] == 0 {
			t.Fatalf("family %s missing from the ranking (got %v)", f, fams)
		}
	}
	if !sort.SliceIsSorted(plans, func(i, j int) bool {
		return plans[i].Predicted.Step() < plans[j].Predicted.Step()
	}) {
		// Stable ties are fine; strict inversions are not.
		for i := 1; i < len(plans); i++ {
			if plans[i].Predicted.Step() < plans[i-1].Predicted.Step() {
				t.Fatalf("ranking inverted at %d: %s (%g) before %s (%g)",
					i, plans[i-1], plans[i-1].Predicted.Step(), plans[i], plans[i].Predicted.Step())
			}
		}
	}
}

func TestSearchExactRanks(t *testing.T) {
	plans, err := plan.Search(table1, plan.Topology{RankBudget: 64, ExactRanks: true}, algos())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Grid.Ranks != 64 {
			t.Fatalf("ExactRanks leaked %s with %d ranks", p, p.Grid.Ranks)
		}
	}
	// The paper's Table 1 ordering at 64 GPUs: Tesseract [4,4,4] first.
	if best := plans[0]; best.Family != "tesseract" || best.Grid.Q != 4 || best.Grid.D != 4 {
		t.Fatalf("best 64-rank plan = %s, want tesseract [4,4,4] (Table 1)", best)
	}
}

// TestBestPlanRespectsMemoryBudget is the planner's core safety property:
// no returned candidate — in particular the winner — may exceed the
// per-rank memory budget, the ranking under a budget is the unbudgeted
// ranking with the over-budget candidates taken out (none of them is scored
// into it), and an impossible budget must error rather than return an
// over-budget plan.
func TestBestPlanRespectsMemoryBudget(t *testing.T) {
	all, err := plan.Search(table1, plan.Topology{RankBudget: 64}, algos())
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(1) << 30 // 1 GiB excludes the small-rank layouts
	plans, err := plan.Search(table1, plan.Topology{RankBudget: 64, MemoryBudget: budget}, algos())
	if err != nil {
		t.Fatal(err)
	}
	var fit []plan.Plan
	smallest := all[0]
	for _, p := range all {
		if p.Predicted.MemoryBytes <= budget {
			fit = append(fit, p)
		}
		if p.Predicted.MemoryBytes < smallest.Predicted.MemoryBytes {
			smallest = p
		}
	}
	if len(fit) == 0 || len(fit) == len(all) {
		t.Fatalf("%d of %d candidates fit 1 GiB: the budget decides nothing", len(fit), len(all))
	}
	if !reflect.DeepEqual(plans, fit) {
		t.Fatalf("budgeted ranking\n%v\nis not the unbudgeted one minus what does not fit\n%v", plans, fit)
	}
	// An unsatisfiable budget errors with the tightest candidate named.
	_, err = plan.Search(table1, plan.Topology{RankBudget: 64, MemoryBudget: 1 << 10}, algos())
	if err == nil || !strings.Contains(err.Error(), "no feasible layout") {
		t.Fatalf("1 KiB budget must fail with a diagnostic, got %v", err)
	}
	if want := smallest.String() + " needs " + plan.FormatBytes(smallest.Predicted.MemoryBytes); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the tightest candidate (%s)", err, want)
	}
}

// TestBandwidthStarvedPrefersDeeperD checks the paper's Table 2 trend: as
// links get slower relative to compute, the planner's best Tesseract mesh
// moves to deeper d (the depth dimension shrinks the per-layer SUMMA
// panels at the cost of the rare depth all-reduce).
func TestBandwidthStarvedPrefersDeeperD(t *testing.T) {
	starved := dist.MeluxinaModel()
	starved.BetaIntra *= 100
	starved.BetaInter *= 100
	plans, err := plan.Search(table1, plan.Topology{RankBudget: 64, ExactRanks: true, Cost: starved}, algos())
	if err != nil {
		t.Fatal(err)
	}
	best := plans[0]
	if best.Family != "tesseract" || best.Grid.D < 2 {
		t.Fatalf("bandwidth-starved best plan = %s, want a deep Tesseract mesh (d ≥ 2)", best)
	}
	// And the deep mesh must strictly beat the flat [8,8,1] layout.
	var flat *plan.Plan
	for i := range plans {
		if plans[i].Family == "tesseract" && plans[i].Grid.Q == 8 && plans[i].Grid.D == 1 {
			flat = &plans[i]
			break
		}
	}
	if flat == nil {
		t.Fatal("flat [8,8,1] candidate missing")
	}
	if best.Predicted.Step() >= flat.Predicted.Step() {
		t.Fatalf("deep mesh %s (%g s) must beat flat %s (%g s) when bandwidth-starved",
			best, best.Predicted.Step(), flat, flat.Predicted.Step())
	}
}

// TestPredictionMatchesSimulatedCluster replays a spread of layouts — all
// three families, shallow and deep meshes — and holds the analytic model
// to the acceptance bound: ≤ 25% step-time error against the simulated
// cluster.
func TestPredictionMatchesSimulatedCluster(t *testing.T) {
	plans, err := plan.Search(table1, plan.Topology{RankBudget: 64}, algos())
	if err != nil {
		t.Fatal(err)
	}
	measure := tables.MeasurePlan(table1, tables.Options{})
	want := map[string]bool{
		"megatron [64]":     true,
		"megatron [4]":      true,
		"tesseract [2,2]":   true,
		"tesseract [2,2,2]": true,
		"tesseract [4,4,4]": true,
		"tesseract [8,8]":   true,
		"optimus [8,8]":     true,
	}
	checked := 0
	for _, p := range plans {
		if !want[p.String()] {
			continue
		}
		v, err := p.Validate(measure)
		if err != nil {
			t.Fatal(err)
		}
		if v.StepErr > 0.25 {
			t.Errorf("%s: step error %.1f%% exceeds 25%% (pred %g, meas %g)",
				p, 100*v.StepErr, p.Predicted.Step(), v.Measured.Step())
		}
		checked++
	}
	if checked != len(want) {
		t.Fatalf("checked %d of %d layouts — enumeration lost some", checked, len(want))
	}
}

// TestPriceIsTheSearchsScore: Price is what Search ranks by, callable on its
// own for one layout (the adaptive trainer's break-even does), and a layout
// nothing can replay is an error, not a number.
func TestPriceIsTheSearchsScore(t *testing.T) {
	plans, err := plan.Search(table1, plan.Topology{RankBudget: 16}, algos())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		b, err := plan.Price(table1, p.Layout(), plan.Topology{})
		if err != nil {
			t.Fatal(err)
		}
		if b != p.Predicted {
			t.Errorf("%s: Price %+v, Search ranked it by %+v", p, b, p.Predicted)
		}
	}
	for name, l := range map[string]parallel.Layout{
		"unregistered family": {Family: "nope", Ranks: 4},
		"depth beyond q":      {Family: "tesseract", Q: 2, D: 3},
		"hidden not split":    {Family: "megatron", Ranks: 7},
	} {
		if _, err := plan.Price(table1, l, plan.Topology{}); err == nil {
			t.Errorf("%s: Price(%s) must fail", name, l)
		}
	}
	if _, err := plan.Price(plan.Workload{Batch: 1, Hidden: 100, Heads: 3}, parallel.Layout{Family: "megatron", Ranks: 1}, plan.Topology{}); err == nil {
		t.Error("a malformed workload must fail")
	}
}

func TestValidateTopAndMaxStepErr(t *testing.T) {
	plans := []plan.Plan{
		{Family: "a", Predicted: plan.Breakdown{Forward: 1, Backward: 1}},
		{Family: "b", Predicted: plan.Breakdown{Forward: 2, Backward: 2}},
	}
	measure := func(p plan.Plan) (plan.Measurement, error) {
		return plan.Measurement{Forward: p.Predicted.Forward, Backward: p.Predicted.Backward * 2}, nil
	}
	vs, err := plan.ValidateTop(plans, 5, measure)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 {
		t.Fatalf("ValidateTop returned %d validations, want 2 (clamped)", len(vs))
	}
	// pred step 2 vs measured 3 → 1/3 error.
	if got := vs[0].StepErr; math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("StepErr = %g, want 1/3", got)
	}
	if got := plan.MaxStepErr(vs); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("MaxStepErr = %g, want 1/3", got)
	}
}

func TestParseAndFormatBytes(t *testing.T) {
	cases := map[string]int64{
		"4GiB":       4 << 30,
		"4gb":        4 << 30,
		"2g":         2 << 30,
		"512MiB":     512 << 20,
		"1.5MiB":     3 << 19,
		"64k":        64 << 10,
		"123":        123,
		"123B":       123,
		" 8 GiB ":    8 << 30,
		"1073741824": 1 << 30,
	}
	for s, want := range cases {
		got, err := plan.ParseBytes(s)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", s, err)
		}
		if got != want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", s, got, want)
		}
	}
	for _, bad := range []string{"", "GiB", "-1MiB", "1.2.3k", "much"} {
		if _, err := plan.ParseBytes(bad); err == nil {
			t.Fatalf("ParseBytes(%q) must fail", bad)
		}
	}
	for b, want := range map[int64]string{
		4 << 30:   "4GiB",
		512 << 20: "512MiB",
		100:       "100B",
		1536:      "1.5KiB",
	} {
		if got := plan.FormatBytes(b); got != want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", b, got, want)
		}
	}
}

func TestWorkloadAndTopologyValidation(t *testing.T) {
	if _, err := (plan.Workload{Batch: 1, Hidden: 100, Heads: 3}).WithDefaults(); err == nil {
		t.Fatal("hidden not divisible by heads must fail")
	}
	if _, err := (plan.Workload{Hidden: 64, Heads: 4}).WithDefaults(); err == nil {
		t.Fatal("zero batch must fail")
	}
	if _, err := (plan.Topology{}).WithDefaults(); err == nil {
		t.Fatal("zero rank budget must fail")
	}
	topo, err := (plan.Topology{RankBudget: 8}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if topo.GPUsPerNode != 4 || topo.Cost.FLOPS == 0 {
		t.Fatalf("defaults not applied: %+v", topo)
	}
}

// TestBadCostModelIsAnErrorNotAPanic: a negative or non-finite cost field is
// a configuration value, so every planner entry point reports it like any
// other bad Topology field instead of panicking in CostModel.WithDefaults.
func TestBadCostModelIsAnErrorNotAPanic(t *testing.T) {
	w := plan.Workload{Batch: 16, Hidden: 64, Heads: 4}
	for _, bad := range []dist.CostModel{
		{FLOPS: -1}, {Alpha: -1}, {BetaIntra: -1}, {BetaInter: -1},
		{FLOPS: math.NaN()}, {Alpha: math.Inf(1)},
	} {
		topo := plan.Topology{RankBudget: 8, Cost: bad}
		if _, err := topo.WithDefaults(); err == nil || !strings.Contains(err.Error(), "invalid cost model") {
			t.Errorf("Topology.WithDefaults with %+v: got %v, want the cost-model error", bad, err)
		}
		if _, err := plan.Search(w, topo, algos()); err == nil || errors.Is(err, plan.ErrNoFeasible) {
			t.Errorf("Search with %+v: got %v, want a configuration error", bad, err)
		}
		if _, err := plan.SearchServing(w, topo, algos(), plan.ServingObjective{}); err == nil {
			t.Errorf("SearchServing with %+v must error", bad)
		}
		if _, err := plan.Replan(w, topo, algos(), 4, nil); err == nil || errors.Is(err, plan.ErrNoFeasible) {
			t.Errorf("Replan with %+v: got %v, want a configuration error", bad, err)
		}
	}
}
