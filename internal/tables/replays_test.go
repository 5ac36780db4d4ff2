package tables

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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
	opts, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range scen {
		topo := plan.Topology{Cost: opts.Cost, GPUsPerNode: opts.GPUsPerNode, RankBudget: sc.RankBudget, ExactRanks: true}
		plans, err := plan.Search(sc.Workload, topo, DefaultAlgos())
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.ValidateTop(plans, topN, MeasurePlan(sc.Workload, opts))
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

// TestRunRowAllocationCeiling keeps the replay of Table 1's [4,4,4] row — 64
// ranks, the most expensive row of both tables — from creeping back up. It
// was 12,925 allocations while phantom headers were pooled by shape and every
// group lookup built a string key, 8,650 without either (wobbling by a few
// dozen with how many rounds were open at once), 7,935 once a group's round
// pool grew by batches, and is 7,985 now that the replay has step boundaries
// and every rank records what it held. The ceiling sits between the first
// two, so a new per-shape or per-rank-per-call cost trips it.
func TestRunRowAllocationCeiling(t *testing.T) {
	row := Table1Rows()[10]
	if row.Scheme != Tesseract || row.Q != 4 || row.D != 4 {
		t.Fatalf("Table 1 row 10 is %s %s, not Tesseract [4,4,4]", row.Scheme, row.Shape())
	}
	const ceiling = 10000
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunRow(row, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("RunRow %s %s: %.0f allocations, ceiling %d", row.Scheme, row.Shape(), allocs, ceiling)
	}
}
