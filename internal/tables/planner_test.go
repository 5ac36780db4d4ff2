package tables

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

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
// exactly RunRow on the equivalent row, with the workload's sequence
// length and recompute setting winning over the options'.
func TestMeasurePlanMatchesRunRow(t *testing.T) {
	w := plan.Workload{Batch: 8, Hidden: 16, Heads: 4, SeqLen: 4}
	p := plan.Plan{Family: "tesseract", Grid: plan.Grid{Ranks: 8, Q: 2, D: 2}}
	got, err := MeasurePlan(w, Options{SeqLen: 999})(p)
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

	if _, err := MeasurePlan(w, Options{})(plan.Plan{Family: "nope"}); err == nil {
		t.Fatal("unknown family must error")
	}
}

// TestFormatPlannerStudySmoke keeps the renderer wired to the data.
func TestFormatPlannerStudySmoke(t *testing.T) {
	points, err := PlannerStudy(PlannerScenarios()[:1], 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatPlannerStudy(points)
	for _, want := range []string{"paper best: Tesseract [4,4,4]", "planner best:", "§3.1 transfers"} {
		if !strings.Contains(out, want) {
			t.Fatalf("study output missing %q:\n%s", want, out)
		}
	}
}

// exactnessSearches are four searches whose candidates between them cover
// every family, 1-rank to 64-rank layouts, the deep mesh whose queued depth
// all-reduces overlap the backward pass ([2,2,2]), and meshes placement
// treats unevenly ([3,3], [3,3,2], [3,3,3] on four-GPU nodes: priced on the
// full cluster, not solo).
var exactnessSearches = []struct {
	name       string
	w          plan.Workload
	budget     int
	candidates int
	has        []string
}{
	{"Table 1 problem", PlannerScenarios()[0].Workload, 64, 23, []string{"tesseract [2,2,2]", "tesseract [4,4,4]", "megatron [64]"}},
	{"Table 2 problem", PlannerScenarios()[1].Workload, 64, 26, []string{"tesseract [2,2,2]", "seqpar [64]"}},
	{"tiny ViT", plan.Workload{Batch: 8, SeqLen: 4, Hidden: 16, Heads: 4, Layers: 2}, 8, 11, []string{"tesseract [2,2,2]", "seqpar [4]"}},
	{"node-misaligned", plan.Workload{Batch: 36, SeqLen: 64, Hidden: 1728, Heads: 36}, 36, 32,
		[]string{"tesseract [2,2,2]", "tesseract [6,6]", "tesseract [3,3]", "tesseract [3,3,2]", "tesseract [3,3,3]", "optimus [3,3]"}},
}

// TestEveryPredictionEqualsItsMeasurement: a price is a replay, so the
// planner's forward and backward seconds equal tables.MeasurePlan's on every
// candidate of every search — not within the 25% the analytic mirror was
// held to, but to rounding (the solo replay and the full cluster may order
// a float sum differently; they agree to 1e-12) — with recompute on and off
// and one layer or two. The hand-mirrored cost files this replaced missed
// [2,2,2] by 0.1-3% in three of the four searches. The footprint the planner
// charges is the same replay's, so it equals the full cluster's largest rank
// to the byte: rank 0, the one a solo replay runs, is never the lighter one.
func TestEveryPredictionEqualsItsMeasurement(t *testing.T) {
	total := 0
	for _, s := range exactnessSearches {
		for _, noRecompute := range []bool{false, true} {
			for _, layers := range []int{1, 2} {
				if testing.Short() && (noRecompute || layers != 1) {
					continue
				}
				w := s.w
				w.NoRecompute, w.Layers = noRecompute, layers
				name := fmt.Sprintf("%s, recompute %v, %d layers", s.name, !noRecompute, layers)
				plans, err := plan.Search(w, plan.Topology{RankBudget: s.budget}, DefaultAlgos())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(plans) != s.candidates {
					t.Errorf("%s: %d candidates, want %d", name, len(plans), s.candidates)
				}
				seen := map[string]bool{}
				// MeasurePlan's replay, with the footprint it drops.
				measure := func(p plan.Plan) (parallel.StepClocks, error) {
					row := Row{Batch: w.Batch, Hidden: w.Hidden, Heads: w.Heads}
					return timeStep(p.Layout(), row, Options{SeqLen: w.SeqLen, Layers: layers, NoRecompute: noRecompute})
				}
				for _, p := range plans {
					seen[p.String()] = true
					m, err := measure(p)
					if err != nil {
						t.Fatalf("%s: %s: %v", name, p, err)
					}
					if m.MemoryBytes <= 0 || p.Predicted.MemoryBytes != m.MemoryBytes {
						t.Errorf("%s: %s priced at %d B a rank, the full cluster's largest holds %d B",
							name, p, p.Predicted.MemoryBytes, m.MemoryBytes)
					}
					for _, v := range []struct {
						phase      string
						pred, meas float64
					}{{"forward", p.Predicted.Forward, m.Forward}, {"backward", p.Predicted.Backward, m.Backward}} {
						if v.meas <= 0 || math.Abs(v.pred-v.meas) > 1e-12*v.meas {
							t.Errorf("%s: %s %s predicted %.17g, measured %.17g (off by %.3g)",
								name, p, v.phase, v.pred, v.meas, math.Abs(v.pred-v.meas)/v.meas)
						}
					}
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
	if !testing.Short() && total != 4*(23+26+11+32) {
		t.Errorf("checked %d candidates, want %d", total, 4*(23+26+11+32))
	}
}

// TestExact64RankingPinned spells out the ranked order of both headline
// searches at exactly 64 ranks — the lists tesseract-plan -exact prints and
// the benchmark replays the top three of — so that the next schedule change
// shows up here as a reviewed diff.
func TestExact64RankingPinned(t *testing.T) {
	want := [][]string{
		{"tesseract [4,4,4]", "tesseract [8,8]", "optimus [8,8]", "megatron [64]"},
		{"tesseract [4,4,4]", "tesseract [8,8]", "optimus [8,8]", "megatron [64]", "seqpar [64]"},
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
