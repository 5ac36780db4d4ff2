package tables

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// TestPlannerStudyRediscoversPaperBest is the PR's acceptance gate: at a
// 64-rank budget the planner must rank candidates from all three families,
// put Tesseract [4,4,4] first on both headline problems (the layout the
// paper's Tables 1 and 2 crown), and predict the replayed step times of
// the top three candidates to within 25%.
func TestPlannerStudyRediscoversPaperBest(t *testing.T) {
	points, err := PlannerStudy(PlannerScenarios(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("expected 2 scenarios, got %d", len(points))
	}
	for _, pt := range points {
		fams := map[string]bool{}
		for _, p := range pt.Plans {
			fams[p.Family] = true
		}
		if len(fams) < 3 {
			t.Errorf("%s: ranking covers %d families, want 3", pt.Scenario.Name, len(fams))
		}
		best := pt.Best()
		if best.Family != "tesseract" || best.Grid.Shape() != pt.Scenario.PaperBest {
			t.Errorf("%s: planner best = %s, paper best = Tesseract %s",
				pt.Scenario.Name, best, pt.Scenario.PaperBest)
		}
		if len(pt.Validations) != 3 {
			t.Errorf("%s: %d validations, want 3", pt.Scenario.Name, len(pt.Validations))
		}
		if maxErr := plan.MaxStepErr(pt.Validations); maxErr > 0.25 {
			t.Errorf("%s: top-3 step error %.1f%% exceeds the 25%% acceptance bound",
				pt.Scenario.Name, 100*maxErr)
		}
	}
}

// TestMeasurePlanMatchesRunRow pins the adapter: measuring a plan must be
// exactly RunRow on the equivalent row under the same options, which win
// over the workload's sequence length as they do over a row's default.
func TestMeasurePlanMatchesRunRow(t *testing.T) {
	w := plan.Workload{Batch: 8, Hidden: 16, Heads: 4, SeqLen: 999}
	p := plan.Plan{Grid: plan.Grid{Family: "tesseract", Ranks: 8, Q: 2, D: 2}}
	got, err := MeasurePlan(w, Options{SeqLen: 4})(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunRow(Row{Scheme: Tesseract, GPUs: 8, Q: 2, D: 2, Batch: 8, Hidden: 16, Heads: 4},
		Options{SeqLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Forward != want.Forward || got.Backward != want.Backward {
		t.Fatalf("MeasurePlan = %+v, RunRow = %+v", got, want)
	}

	if _, err := MeasurePlan(w, Options{})(plan.Plan{Grid: plan.Grid{Family: "nope"}}); err == nil {
		t.Fatal("unknown family must error")
	}
}

// TestPlannerStudyAppliesOptions: the study searches and measures every
// scenario under the options' sequence length, layer count and recompute
// setting — exactly what plan.Search and MeasurePlan give for the workload
// so set — and the options move its seconds. (They used to be checked for
// negatives and then dropped: -planner -seqlen 128 -layers 2 printed the
// default study.)
func TestPlannerStudyAppliesOptions(t *testing.T) {
	scen := PlannerScenarios()[:1]
	opts := Options{SeqLen: 128, Layers: 2, NoRecompute: true}
	got, err := PlannerStudy(scen, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	def, err := PlannerStudy(scen, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := scen[0].Workload
	w.SeqLen, w.Layers, w.NoRecompute = 128, 2, true
	plans, err := plan.Search(w, plan.Topology{RankBudget: scen[0].RankBudget, ExactRanks: true}, DefaultAlgos())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.ValidateTop(plans, 2, MeasurePlan(w, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Plans, plans) || !reflect.DeepEqual(got[0].Validations, want) {
		t.Errorf("the study under %+v is not the search and measurement of %+v", opts, w)
	}
	if g, d := got[0].Best().Predicted, def[0].Best().Predicted; g.Step() == d.Step() || g.MemoryBytes == d.MemoryBytes {
		t.Errorf("options %+v left the best layout's price at the default's: %+v", opts, g)
	}
}

// TestFormatPlannerStudySmoke keeps the renderer wired to the data.
func TestFormatPlannerStudySmoke(t *testing.T) {
	points, err := PlannerStudy(PlannerScenarios()[:1], 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatPlannerStudy(points)
	for _, want := range []string{"paper best: Tesseract [4,4,4]", "planner best:", "pred(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("study output missing %q:\n%s", want, out)
		}
	}
}

// exactnessSearches are four searches whose candidates between them cover
// every family the planner searches, 1-rank to 64-rank layouts, the deep
// mesh whose queued depth all-reduces overlap the backward pass ([2,2,2]),
// and meshes placement treats unevenly ([3,3], [3,3,2], [3,3,3] on four-GPU
// nodes: priced on the full cluster, not solo).
var exactnessSearches = []struct {
	name       string
	w          plan.Workload
	budget     int
	candidates int
	has        []string
}{
	{"Table 1 problem", PlannerScenarios()[0].Workload, 64, 21, []string{"tesseract [2,2,2]", "tesseract [4,4,4]", "megatron [64]", "seqpar [64]"}},
	{"Table 2 problem", PlannerScenarios()[1].Workload, 64, 22, []string{"tesseract [2,2,2]", "seqpar [64]"}},
	{"tiny ViT", plan.Workload{Batch: 8, SeqLen: 4, Hidden: 16, Heads: 4, Layers: 2}, 8, 9, []string{"tesseract [2,2,2]", "seqpar [4]"}},
	{"node-misaligned", plan.Workload{Batch: 36, SeqLen: 64, Hidden: 1728, Heads: 36}, 36, 27,
		[]string{"tesseract [2,2,2]", "tesseract [6,6]", "tesseract [3,3]", "tesseract [3,3,2]", "tesseract [3,3,3]"}},
}

// TestEveryPredictionEqualsItsMeasurement: a price is a replay, and a
// rank-symmetric layout is replayed on rank 0 alone (plan.Price's solo
// cluster) — which is exact only if every rank's clock and footprint is rank
// 0's. So the planner's forward and backward seconds equal, to the bit, the
// same phantom step replayed on the layout's full cluster, every rank, on
// every candidate of every search, with recompute on and off and one layer or
// two, on two machines: Meluxina, and six compute-bound GPUs a node, where
// most meshes straddle nodes unevenly and are replayed on the full cluster.
// The footprint the planner charges equals the full cluster's largest rank to
// the byte: rank 0, the one a solo replay runs, is never the lighter one. The
// node-misaligned search keeps the [3,3,d] meshes, which Price replays on the
// full cluster itself, in the set.
//
// Table rows and measured plans are priced by the same replay, so the same
// holds for what RunTable prints for all 25 rows of both paper tables and
// for both sides of every PlannerStudy validation.
func TestEveryPredictionEqualsItsMeasurement(t *testing.T) {
	same := func(what string, fwd, bwd float64, full parallel.StepClocks) {
		t.Helper()
		if full.Forward <= 0 || full.Backward <= 0 || fwd != full.Forward || bwd != full.Backward {
			t.Errorf("%s: forward %.17g, backward %.17g; the full cluster's %.17g, %.17g",
				what, fwd, bwd, full.Forward, full.Backward)
		}
	}
	machines := []dist.Machine{{}, {Cost: StragglerCost(), GPUsPerNode: 6}}
	total := 0
	for _, s := range exactnessSearches {
		for mi, m := range machines {
			for _, noRecompute := range []bool{false, true} {
				for _, layers := range []int{1, 2} {
					if testing.Short() && (noRecompute || layers != 1) {
						continue
					}
					w := s.w
					w.NoRecompute, w.Layers = noRecompute, layers
					name := fmt.Sprintf("%s, machine %d, recompute %v, %d layers", s.name, mi, !noRecompute, layers)
					topo := plan.Topology{Cost: m.Cost, GPUsPerNode: m.GPUsPerNode, RankBudget: s.budget}
					plans, err := plan.Search(w, topo, DefaultAlgos())
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if len(plans) != s.candidates {
						t.Errorf("%s: %d candidates, want %d", name, len(plans), s.candidates)
					}
					seen := map[string]bool{}
					row := Row{Batch: w.Batch, Hidden: w.Hidden, Heads: w.Heads}
					opts := Options{SeqLen: w.SeqLen, Layers: layers, NoRecompute: noRecompute}
					for _, p := range plans {
						seen[p.String()] = true
						full, err := fullPhantomStep(p.Grid, row, opts, m)
						if err != nil {
							t.Fatalf("%s: %s: %v", name, p, err)
						}
						if full.MemoryBytes <= 0 || p.Predicted.MemoryBytes != full.MemoryBytes {
							t.Errorf("%s: %s priced at %d B a rank, the full cluster's largest holds %d B",
								name, p, p.Predicted.MemoryBytes, full.MemoryBytes)
						}
						same(name+": "+p.String(), p.Predicted.Forward, p.Predicted.Backward, full)
						if pr := p.Predicted; pr.ComputeSeconds <= 0 || pr.CommSeconds < 0 ||
							math.Abs(pr.ComputeSeconds+pr.CommSeconds-pr.Step()) > 1e-12*pr.Step() {
							t.Errorf("%s: %s compute %g + comm %g is not its step %g", name, p, pr.ComputeSeconds, pr.CommSeconds, pr.Step())
						}
						if p.Grid.Ranks == 1 && p.Predicted.CommSeconds != 0 {
							t.Errorf("%s: %s communicates for %g s on one rank", name, p, p.Predicted.CommSeconds)
						}
						total++
					}
					for _, want := range s.has {
						if !seen[want] {
							t.Errorf("%s: candidate %s missing", name, want)
						}
					}
				}
			}
		}
	}
	if want := len(machines) * 4 * (21 + 22 + 9 + 27); !testing.Short() && total != want {
		t.Errorf("checked %d candidates, want %d", total, want)
	}

	tabs := [][]Row{Table1Rows(), Table2Rows()}
	if testing.Short() {
		tabs = [][]Row{Table1Rows()[:8], Table2Rows()[:5]} // nothing wider than 16 ranks
	}
	rows := 0
	for _, tab := range tabs {
		res, err := RunTable(tab, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			l, err := LayoutForRow(r.Row)
			if err != nil {
				t.Fatal(err)
			}
			full, err := fullPhantomStep(l, r.Row, Options{}, dist.Machine{})
			if err != nil {
				t.Fatalf("%s %s: %v", r.Row.Scheme, r.Row.Shape(), err)
			}
			same(fmt.Sprintf("table row %s %s", r.Row.Scheme, r.Row.Shape()), r.Measured.Forward, r.Measured.Backward, full)
			rows++
		}
	}
	if !testing.Short() && rows != 25 {
		t.Errorf("checked %d table rows, want 25", rows)
	}
	if testing.Short() {
		return
	}

	points, err := PlannerStudy(PlannerScenarios(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	leaders := 0
	for _, pt := range points {
		w, err := pt.Scenario.Workload.WithDefaults()
		if err != nil {
			t.Fatal(err)
		}
		row := Row{Batch: w.Batch, Hidden: w.Hidden, Heads: w.Heads}
		for _, v := range pt.Validations {
			full, err := fullPhantomStep(v.Plan.Grid, row, Options{SeqLen: w.SeqLen, Layers: w.Layers, NoRecompute: w.NoRecompute}, dist.Machine{})
			if err != nil {
				t.Fatalf("%s: %s: %v", pt.Scenario.Name, v.Plan, err)
			}
			what := fmt.Sprintf("%s: leader %s", pt.Scenario.Name, v.Plan)
			same(what+" predicted", v.Plan.Predicted.Forward, v.Plan.Predicted.Backward, full)
			same(what+" measured", v.Measured.Forward, v.Measured.Backward, full)
			leaders++
		}
	}
	if leaders != 6 {
		t.Errorf("checked %d planner-study leaders, want 6", leaders)
	}
}

// TestEveryCandidateIsARuntimeLayout pins the one-description contract: the
// registry hands the planner the runtime's own layouts, so every layout
// parallel.Layouts lists for a default Algo that splits the workload — for
// both headline scenarios, tesseract-plan's vit-base preset and the
// node-misaligned 36-rank workload — is already what parallel.Validate makes
// of it, and the family parallel.New builds from it, on every rank, reports
// that layout and its row shards.
func TestEveryCandidateIsARuntimeLayout(t *testing.T) {
	type search struct {
		w      plan.Workload
		budget int
	}
	searches := []search{
		{plan.Workload{Batch: 256, SeqLen: 196, Hidden: 768, Heads: 12}, 64},
		{exactnessSearches[3].w, exactnessSearches[3].budget},
	}
	for _, sc := range PlannerScenarios() {
		searches = append(searches, search{sc.Workload, sc.RankBudget})
	}
	total := 0
	for _, s := range searches {
		w, err := s.w.WithDefaults()
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range DefaultAlgos() {
			ls, err := parallel.Layouts(string(algo), s.budget)
			if err != nil {
				t.Fatal(err)
			}
			for l := range ls {
				if !parallel.Fits(l, w.Batch, w.SeqLen, w.Hidden, w.Heads) {
					continue
				}
				total++
				v, err := parallel.Validate(l)
				if err != nil {
					t.Errorf("%+v: %s fails validation: %v", w, l, err)
					continue
				}
				if v != l {
					t.Errorf("%+v: enumerated %+v, validated %+v", w, l, v)
				}
				c := dist.New(dist.Config{WorldSize: l.Ranks})
				if err := c.Run(func(wk *dist.Worker) error {
					f, err := parallel.New(wk, l)
					if err != nil {
						return err
					}
					if f.Layout() != l || f.RowShards() != l.RowShards() {
						t.Errorf("%s built as %+v with %d row shards, candidate has %d",
							l, f.Layout(), f.RowShards(), l.RowShards())
					}
					return nil
				}); err != nil {
					t.Errorf("%+v: building %s: %v", w, l, err)
				}
			}
		}
	}
	// Table 1's 21, Table 2's 22 (exactnessSearches), vit-base's 15 and the
	// node-misaligned workload's 27.
	if total != 21+22+15+27 {
		t.Errorf("checked %d candidates, want %d", total, 21+22+15+27)
	}
}

// TestSearchListsEveryFittingLayoutOnce is the planner's search space as a
// property over generated workloads and rank budgets: plan.Search over
// DefaultAlgos ranks exactly the layouts of those families, on at most the
// budget's ranks, that parallel.Validate and parallel.CheckActivation accept
// — the replay's own refusal, which splits activation rows per token — and
// no two candidates run the same registration at the same shape: the
// families parallel.New builds for them differ in type, shape or row shards,
// or their replays price differently (megatron [1] and seqpar [1] are one
// type with one row shard, and seqpar's bracket holds less). (A
// per-sequence filter once hid seqpar layouts the replay runs, and Optimus'
// [q,q] was priced beside Tesseract's, the same family.)
func TestSearchListsEveryFittingLayoutOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 1))
	for n := 0; n < 60; n++ {
		heads := 1 + rng.IntN(8)
		w := plan.Workload{Batch: 1 + rng.IntN(12), SeqLen: 1 + rng.IntN(8), Hidden: heads * (1 + rng.IntN(4)), Heads: heads}
		budget := 1 + rng.IntN(20)
		want := map[string]bool{}
		for _, a := range DefaultAlgos() {
			var ls []parallel.Layout
			for p := 1; p <= budget; p++ {
				ls = append(ls, parallel.Layout{Family: string(a), Ranks: p})
				for q := 1; q*q <= p; q++ {
					if p%(q*q) == 0 {
						ls = append(ls, parallel.Layout{Family: string(a), Q: q, D: p / (q * q)})
					}
				}
			}
			for _, l := range ls {
				if v, err := parallel.Validate(l); err == nil && parallel.CheckActivation(v, w.Batch, w.SeqLen, w.Hidden, w.Heads) == nil {
					want[v.String()] = true
				}
			}
		}
		plans, err := plan.Search(w, plan.Topology{RankBudget: budget}, DefaultAlgos())
		if err != nil {
			t.Fatalf("%+v within %d ranks: %v", w, budget, err)
		}
		got := map[string]bool{}
		runs := map[string]string{}
		for _, p := range plans {
			got[p.String()] = true
			c := dist.NewSolo(dist.Config{WorldSize: p.Ranks})
			if err := c.Run(func(wk *dist.Worker) error {
				f, err := parallel.New(wk, p.Grid)
				if err != nil {
					return err
				}
				run := fmt.Sprintf("%T %s %d %+v", f, p.Shape(), f.RowShards(), p.Predicted)
				if other, dup := runs[run]; dup {
					t.Errorf("%+v: %s and %s run the same family (%s)", w, other, p, run)
				}
				runs[run] = p.String()
				return nil
			}); err != nil {
				t.Fatalf("%+v: building %s: %v", w, p, err)
			}
			c.Close()
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v within %d ranks: searched %v, the registry's fitting layouts are %v", w, budget, keys(got), keys(want))
		}
	}
}

// keys returns a set's members, sorted.
func keys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// TestExact64RankingPinned spells out the ranked order of both headline
// searches at exactly 64 ranks — the lists tesseract-plan -exact prints and
// the benchmark replays the top three of — so that the next schedule change
// shows up here as a reviewed diff.
func TestExact64RankingPinned(t *testing.T) {
	want := [][]string{
		{"tesseract [4,4,4]", "tesseract [8,8]", "megatron [64]", "seqpar [64]"},
		{"tesseract [4,4,4]", "tesseract [8,8]", "megatron [64]", "seqpar [64]"},
	}
	for i, sc := range PlannerScenarios() {
		plans, err := plan.Search(sc.Workload, plan.Topology{RankBudget: sc.RankBudget, ExactRanks: true}, DefaultAlgos())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range plans {
			got = append(got, p.String())
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s:\n got %v\nwant %v", sc.Name, got, want[i])
		}
	}
}
