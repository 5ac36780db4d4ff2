package tables

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// sameBits reports whether two results agree in every column, bit for bit.
func sameBits(a, b Result) bool {
	return math.Float64bits(a.Forward) == math.Float64bits(b.Forward) &&
		math.Float64bits(a.Backward) == math.Float64bits(b.Backward) &&
		math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.Inference) == math.Float64bits(b.Inference)
}

// atProcs runs fn at the given GOMAXPROCS and puts the old value back.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestRunTableConcurrentEqualsSequential: however many replays run at once,
// RunTable returns what a plain loop over RunRow returns — every row of both
// paper tables, in order, bit for bit.
func TestRunTableConcurrentEqualsSequential(t *testing.T) {
	tabs := [][]Row{Table1Rows(), Table2Rows()}
	if testing.Short() {
		tabs = [][]Row{Table1Rows()[:8], Table2Rows()[:5]} // nothing wider than 16 ranks
	}
	var want [][]Result
	for _, rows := range tabs {
		var res []Result
		for _, r := range rows {
			m, err := RunRow(r, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res = append(res, m)
		}
		want = append(want, res)
	}
	for _, procs := range []int{1, 2, 8} {
		atProcs(procs, func() {
			for i, rows := range tabs {
				got, err := RunTable(rows, Options{})
				if err != nil {
					t.Fatalf("GOMAXPROCS %d, table %d: %v", procs, i+1, err)
				}
				if len(got) != len(rows) {
					t.Errorf("GOMAXPROCS %d, table %d: %d results for %d rows", procs, i+1, len(got), len(rows))
					continue
				}
				for k, r := range got {
					if r.Row != rows[k] {
						t.Errorf("GOMAXPROCS %d, table %d: result %d is row %s %s, want %s %s",
							procs, i+1, k, r.Row.Scheme, r.Row.Shape(), rows[k].Scheme, rows[k].Shape())
					}
					if !sameBits(r.Measured, want[i][k]) {
						t.Errorf("GOMAXPROCS %d, table %d, row %s %s: %+v, a RunRow loop gives %+v",
							procs, i+1, rows[k].Scheme, rows[k].Shape(), r.Measured, want[i][k])
					}
				}
			}
		})
	}
}

// TestRunTableErrorIsLowestRowNoLeak: with two bad rows in mid-table the
// error names the first of them, whichever replay failed first on the clock,
// and every goroutine the call started is gone when it returns.
func TestRunTableErrorIsLowestRowNoLeak(t *testing.T) {
	good := smallRow(Tesseract, 8, 2, 2)
	bad1 := Row{Scheme: Tesseract, GPUs: 5, Q: 2, D: 1, Batch: 8, Hidden: 16, Heads: 4} // [2,2,1] is 4 processors
	bad2 := Row{Scheme: Optimus, GPUs: 4, Q: 2, Batch: 8, Hidden: 18, Heads: 4}         // 18 does not split over 4 heads
	rows := []Row{good, good, good, bad1, good, bad2, good, good}
	for _, procs := range []int{1, 2, 8} {
		var before int
		var res []TableResult
		var err error
		atProcs(procs, func() {
			before = runtime.NumGoroutine()
			res, err = RunTable(rows, Options{SeqLen: 4})
		})
		if err == nil || res != nil {
			t.Fatalf("GOMAXPROCS %d: a table with bad rows returned %v, %v", procs, res, err)
		}
		if !strings.Contains(err.Error(), "row Tesseract [2,2,1]") || !strings.Contains(err.Error(), "row says 5") {
			t.Errorf("GOMAXPROCS %d: error %q does not name the first bad row", procs, err)
		}
		// Workers of the last clusters may still be between their final
		// wg.Done and exit; they need no help from anyone to get there.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("GOMAXPROCS %d: %d goroutines before the call, %d after", procs, before, n)
		}
	}
	// The second bad row alone is an error of its own: the case above did
	// not pass by bad2 happening to be valid.
	if _, err := RunRow(bad2, Options{SeqLen: 4}); err == nil {
		t.Error("the second bad row runs clean on its own")
	}
}

// TestPlannerStudyEqualsSequentialValidateTop: the batched study is
// plan.ValidateTop over MeasurePlan, scenario by scenario — same plans, same
// validations, same order.
func TestPlannerStudyEqualsSequentialValidateTop(t *testing.T) {
	scen := PlannerScenarios()
	if testing.Short() {
		for i := range scen {
			scen[i].RankBudget = 16
			scen[i].Workload = plan.Workload{Batch: 16, Hidden: 64, Heads: 16, SeqLen: 8}
		}
	}
	const topN = 3
	got, err := PlannerStudy(scen, topN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(scen) {
		t.Fatalf("%d points for %d scenarios", len(got), len(scen))
	}
	for i, sc := range scen {
		topo := plan.Topology{RankBudget: sc.RankBudget, ExactRanks: true}
		plans, err := plan.Search(sc.Workload, topo, DefaultAlgos())
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.ValidateTop(plans, topN, MeasurePlan(sc.Workload, Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Scenario != sc {
			t.Errorf("point %d is scenario %q, want %q", i, got[i].Scenario.Name, sc.Name)
		}
		if !reflect.DeepEqual(got[i].Plans, plans) {
			t.Errorf("%s: the study's ranking differs from plan.Search's", sc.Name)
		}
		if !reflect.DeepEqual(got[i].Validations, want) {
			t.Errorf("%s: the study validated\n%+v\nValidateTop over MeasurePlan gives\n%+v", sc.Name, got[i].Validations, want)
		}
	}
}

// TestRunRowAllocationCeiling keeps what one phantom replay allocates from
// creeping back up: Table 1's [4,4,4] row — 64 ranks, the most expensive row
// of both tables — its Megatron [64] and Optimus [8,8] rows, one planner
// candidate priced by plan.Price, and one plan.Search of the Table 1 problem,
// its candidates and the runner that prices them side by side. A replay
// builds a solo cluster, its groups and a phantom stack afresh (nothing is
// cached across replays), so each ceiling is its count plus at most 5 %:
// sending table rows back to every rank trips it (thousands), and so does a
// new per-group, per-round, per-header or per-parameter allocation.
// (testing.AllocsPerRun runs at GOMAXPROCS 1, where the runner starts no
// goroutine, so the counts do not depend on the machine.)
func TestRunRowAllocationCeiling(t *testing.T) {
	t1 := Table1Rows()
	for _, c := range []struct {
		row     int
		name    string
		ceiling float64
	}{
		{10, "Tesseract [4,4,4]", 54}, // 53
		{2, "Megatron-LM [64]", 49},   // 48
		{5, "Optimus [8,8]", 50},      // 49
	} {
		row := t1[c.row]
		if got := string(row.Scheme) + " " + row.Shape(); got != c.name {
			t.Fatalf("Table 1 row %d is %s, not %s", c.row, got, c.name)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := RunRow(row, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("RunRow %s: %.0f allocations, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}

	// The planner's own price of the Table 2 problem's best layout.
	sc := PlannerScenarios()[1]
	l := parallel.Layout{Family: "tesseract", Q: 4, D: 4}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := plan.Price(sc.Workload, l, plan.Topology{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 54 { // 53
		t.Errorf("plan.Price %s %v: %.0f allocations, ceiling 54", sc.Name, l, allocs)
	}

	// The search the planner study makes for the Table 1 problem.
	sc = PlannerScenarios()[0]
	topo := plan.Topology{RankBudget: sc.RankBudget, ExactRanks: true}
	allocs = testing.AllocsPerRun(5, func() {
		if _, err := plan.Search(sc.Workload, topo, DefaultAlgos()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 235 { // 224
		t.Errorf("plan.Search %s: %.0f allocations, ceiling 235", sc.Name, allocs)
	}
}

// TestSearchConcurrentEqualsSequential: plan.Search and plan.SearchServing
// price their candidates side by side, and whatever the GOMAXPROCS they
// return what one price after another returns (GOMAXPROCS 1 is that loop, on
// the calling goroutine) — the same list in the same order, or the same
// error — under no memory budget, one that drops some candidates and one
// that drops them all. Every training price is plan.Price's. The searches are
// the Table 1 problem's exact-64 one and a 36-rank one whose [3,3,d]
// candidates replay on the full cluster.
func TestSearchConcurrentEqualsSequential(t *testing.T) {
	sc := PlannerScenarios()[0]
	for _, c := range []struct {
		w    plan.Workload
		topo plan.Topology
	}{
		{sc.Workload, plan.Topology{RankBudget: sc.RankBudget, ExactRanks: true}},
		{plan.Workload{Batch: 36, Hidden: 72, Heads: 36, SeqLen: 8}, plan.Topology{RankBudget: 36}},
	} {
		searchConcurrentEqualsSequential(t, c.w, c.topo)
	}
}

func searchConcurrentEqualsSequential(t *testing.T, w plan.Workload, topo plan.Topology) {
	t.Helper()
	all, err := plan.Search(w, topo, DefaultAlgos())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("%d candidates: too few to drop some and keep some", len(all))
	}
	for _, p := range all {
		if want, err := plan.Price(w, p.Grid, topo); err != nil || p.Predicted != want {
			t.Errorf("%s: searched %+v, plan.Price gives %+v (%v)", p, p.Predicted, want, err)
		}
	}
	serving, err := plan.SearchServing(w, topo, DefaultAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	// The budgets: none, the median candidate's footprint (the lighter half
	// stays), and one byte below the lightest (nothing stays).
	budgets := func(mem []int64) []int64 {
		slices.Sort(mem)
		return []int64{0, mem[len(mem)/2], mem[0] - 1}
	}
	var trainMem, serveMem []int64
	for _, p := range all {
		trainMem = append(trainMem, p.Predicted.MemoryBytes)
	}
	for _, p := range serving {
		serveMem = append(serveMem, p.Predicted.MemoryBytes)
	}
	type outcome struct {
		train              []plan.Plan
		serve              []plan.ServingPlan
		trainErr, serveErr string
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	run := func(trainBudget, serveBudget int64) outcome {
		var o outcome
		var err error
		tt, st := topo, topo
		tt.MemoryBudget, st.MemoryBudget = trainBudget, serveBudget
		o.train, err = plan.Search(w, tt, DefaultAlgos())
		o.trainErr = errText(err)
		o.serve, err = plan.SearchServing(w, st, DefaultAlgos(), plan.ServingObjective{})
		o.serveErr = errText(err)
		return o
	}
	tb, sb := budgets(trainMem), budgets(serveMem)
	for k := range tb {
		var want outcome
		atProcs(1, func() { want = run(tb[k], sb[k]) })
		switch k {
		case 1:
			if len(want.train) == 0 || len(want.train) == len(all) || len(want.serve) == 0 || len(want.serve) == len(serving) {
				t.Fatalf("the median budgets keep %d of %d and %d of %d candidates", len(want.train), len(all), len(want.serve), len(serving))
			}
		case 2:
			if !strings.Contains(want.trainErr, "smallest candidate") || !strings.Contains(want.serveErr, "smallest candidate") {
				t.Fatalf("budgets below every candidate give %q and %q", want.trainErr, want.serveErr)
			}
		}
		for _, procs := range []int{2, 8} {
			var got outcome
			atProcs(procs, func() { got = run(tb[k], sb[k]) })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d ranks, GOMAXPROCS %d, budgets %d and %d B:\n%+v\none price after another gives\n%+v",
					topo.RankBudget, procs, tb[k], sb[k], got, want)
			}
		}
	}
}

// flakyFamily is megatron's family under a name of its own whose
// constructor refuses [2] and [8]: the listed layouts a search cannot price.
const flakyFamily = "tables-test-flaky"

func init() {
	parallel.Register(parallel.Spec{
		Name: flakyFamily,
		New: func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
			if l.Ranks == 2 || l.Ranks == 8 {
				return nil, fmt.Errorf("%s refuses %d ranks", flakyFamily, l.Ranks)
			}
			return megatron.NewFamily(w, l, megatron.Replicated), nil
		},
		Arrangement: parallel.Flat,
	})
}

// TestSearchErrorIsLowestCandidate: with the 2nd and the 4th of a family's
// layouts unpriceable the search's error names the 2nd, whichever replay
// failed first on the clock, and every goroutine the search started is gone
// when it returns.
func TestSearchErrorIsLowestCandidate(t *testing.T) {
	w := plan.Workload{Batch: 8, Hidden: 16, Heads: 16, SeqLen: 4} // [1], [2], [4], [8] and [16] split it
	bad1 := parallel.Layout{Family: flakyFamily, Ranks: 2}
	bad2 := parallel.Layout{Family: flakyFamily, Ranks: 8}
	for _, procs := range []int{1, 2, 8} {
		var before int
		var plans []plan.Plan
		var err error
		atProcs(procs, func() {
			before = runtime.NumGoroutine()
			plans, err = plan.Search(w, plan.Topology{RankBudget: 16}, []plan.Algo{flakyFamily})
		})
		if err == nil || plans != nil {
			t.Fatalf("GOMAXPROCS %d: a search with bad candidates returned %v, %v", procs, plans, err)
		}
		if !strings.Contains(err.Error(), "pricing "+bad1.String()) {
			t.Errorf("GOMAXPROCS %d: error %q does not name the first bad candidate, %s", procs, err, bad1)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("GOMAXPROCS %d: %d goroutines before the search, %d after", procs, before, n)
		}
	}
	// The second bad candidate fails on its own: the case above did not pass
	// by bad2 happening to be priceable.
	if _, err := plan.Price(w, bad2, plan.Topology{}); err == nil {
		t.Errorf("%s prices clean on its own", bad2)
	}
}
