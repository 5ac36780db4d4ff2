package main

import (
	"bytes"
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestQuartilesFollowPythonsRule(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of 1,2,4 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Fatalf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	if got := percentile(xs, 0.95); got != 95 {
		t.Fatalf("p95 of 1..100 = %v, want 95 (nearest rank)", got)
	}
	if got := percentile(xs, 1); got != 100 {
		t.Fatalf("p100 = %v", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		out  float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond p99
		{999, 0.99, 1 - 10.0/999},
		{200, 0.95, 0.95},
		{48, 0.95, 1 - 10.0/48},
		{12, 0.95, 0.5}, // never below the median
		{0, 0.95, 0.5},
	} {
		if got := tailPercentile(c.n, c.want); got != c.out {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.out)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "x.step", Start: 0, End: 100, Parent: -1, Op: 0, Ops: 1},
		{Name: "x.fwd", Start: 10, End: 40, Parent: 0, Op: 0},
		{Name: "y.gemm", Start: 15, End: 25, Parent: 1, Op: 0},
		{Name: "x.bwd", Start: 40, End: 90, Parent: 0, Op: 0},
		{Name: "x.step", Start: 100, End: 300, Parent: -1, Op: 1, Ops: 4},
	}}
	self := tr.selfTimes()
	want := map[string][]float64{"x.step": {20, 200}, "x.fwd": {20}, "y.gemm": {10}, "x.bwd": {50}}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s: %v, want %v", name, got, w)
			}
		}
	}
	// Children plus self account for the whole first step.
	if sum := self["x.step"][0] + self["x.fwd"][0] + self["y.gemm"][0] + self["x.bwd"][0]; sum != 100 {
		t.Fatalf("self times of the first step sum to %v, want its 100 ns", sum)
	}
	if got := tr.perOp(); len(got) != 2 || got[0] != 100 || got[1] != 50 {
		t.Fatalf("perOp = %v, want [100 50]", got)
	}
}

func TestTracerNestsAndNumbersOps(t *testing.T) {
	var none *tracer
	none.end(none.begin("ignored")) // a nil tracer records nothing and does not panic
	tr := newTracer()
	a := tr.beginOp("a.step", 1)
	b := tr.begin("a.fwd")
	tr.end(b)
	tr.end(a)
	c := tr.beginOp("a.step", 1)
	tr.end(c)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[1].Op != 0 || tr.spans[2].Op != 1 || tr.spans[2].Parent != -1 {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	path := t.TempDir() + "/x.trace.json"
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b2, []byte(`"thread_name"`)) || !bytes.Contains(b2, []byte(`"a.fwd"`)) {
		t.Fatalf("chrome trace lacks a track name or a span: %s", b2)
	}
}

// fakeWorkload runs chunks of a fixed op count and scripted simulated time.
type fakeWorkload struct {
	sims  []float64
	calls int
	fail  error
}

func (f *fakeWorkload) setup() error { return nil }
func (f *fakeWorkload) chunk(*tracer) (chunkStat, error) {
	sim := f.sims[f.calls%len(f.sims)]
	f.calls++
	return chunkStat{ops: 10, refused: 1, sim: sim}, f.fail
}
func (f *fakeWorkload) check() ([]string, error)                     { return nil, nil }
func (f *fakeWorkload) layers(layerCtx, func(string, float64)) error { return nil }

func TestRunPassChunking(t *testing.T) {
	cal := newCalibrator()
	defer cal.stop()
	w := &fakeWorkload{sims: []float64{2}}
	p, err := runPass(w, nil, cal, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.chunkSec) != 5 || p.ops != 50 || p.refused != 5 || p.simPerOp != 0.2 || p.simVaries || p.speed <= 0 {
		t.Fatalf("pass %+v", p)
	}
	if _, err := runPass(&fakeWorkload{sims: []float64{2}, fail: errors.New("boom")}, nil, cal, 0, 1); err == nil {
		t.Fatal("a failing chunk must fail the pass")
	}
	p, err = runPass(&fakeWorkload{sims: []float64{2, 3}}, nil, cal, 0, 2)
	if err != nil || !p.simVaries {
		t.Fatalf("simulated time that differs between chunks must be flagged: %+v %v", p, err)
	}
}

func TestJudge(t *testing.T) {
	rate := metricDef{Name: "wall_ops_per_s", Better: "higher", Bound: 0.10}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.25}
	steady := func(v float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v * (1 + 0.002*float64(i%3-1))
		}
		return out
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", rate, steady(100), steady(100), vUnchanged},
		{"5% slower is inside the bound", rate, steady(100), steady(95), vUnchanged},
		{"15% slower", rate, steady(100), steady(85), vRegression},
		{"20% faster, every pair", rate, steady(100), steady(120), vImproved},
		{"20% faster but only five pairs", rate, steady(100)[:5], steady(120)[:5], vUnchanged},
		{"spread wider than the bound", rate, noisy, noisy, vUnresolved},
		{"regression beats noise", rate, noisy, steady(50), vRegression},
		{"0.1 s more set-up is under the floor", setup, steady(0.01), steady(0.11), vUnchanged},
		{"0.5 s more set-up", setup, steady(0.01), steady(0.51), vRegression},
		{"lower is better", setup, steady(2), steady(1), vImproved},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	a := &sample{values: []float64{1.5, 2.5}, seeds: []uint64{1, 2}}
	if got := judgeExact(a, &sample{values: []float64{1.5, 2.5}, seeds: []uint64{1, 2}}); got != vExact {
		t.Errorf("equal per seed: %s", got)
	}
	if got := judgeExact(a, &sample{values: []float64{1.5, 2.5000001}, seeds: []uint64{1, 2}}); got != vMismatch {
		t.Errorf("one bit off: %s", got)
	}
	if got := judgeExact(a, &sample{values: []float64{2.5}, seeds: []uint64{2}}); got != vExact {
		t.Errorf("sets of different length: %s", got)
	}
}

func TestCompareSetsExitCode(t *testing.T) {
	set := func(rate, sim float64) runSet {
		return runSet{"train-small": {
			"wall_ops_per_s": {values: []float64{rate, rate, rate}, seeds: []uint64{1, 2, 3}},
			"sim_s_per_op":   {values: []float64{sim, sim, sim}, seeds: []uint64{1, 2, 3}},
		}}
	}
	var out bytes.Buffer
	if code := compareSets(set(100, 1), set(101, 1), &out); code != 0 {
		t.Fatalf("equal sets exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), vExact) || !strings.Contains(out.String(), vUnchanged) {
		t.Fatalf("rows lack verdicts:\n%s", out.String())
	}
	if code := compareSets(set(100, 1), set(70, 1), &out); code != 1 {
		t.Fatalf("a regression must exit 1, got %d", code)
	}
	if code := compareSets(set(100, 1), set(100, 1.0000001), &out); code != 1 {
		t.Fatalf("a sim_ mismatch must exit 1, got %d", code)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestSchemaMeetsTheContract(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's alphabet or length", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	hasSetup := false
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			check(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("unit %q of %s", d.Unit, d.Name)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("better %q of %s", d.Better, d.Name)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s", d.Bound, d.Name)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}

	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from schema.go; regenerate it with `go run -C bench . -schema > BENCHMARK.json`")
	}
}

// quickRun runs a workload at 1/500 of its op count with every metric.
func quickRun(t *testing.T, name string, seed uint64) *result {
	t.Helper()
	res, _, err := runWorkload(runConfig{name: name, seed: seed, seconds: 0, trace: "both", scale: 500})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct %v, failed %d of %d: %v", name, res.Correct, res.Failed, res.Attempted, res.Notes)
	}
	return res
}

func TestWorkloadsReportTheSchemaAndRepeat(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			if wd.Name == "train-wide" && testing.Short() {
				// Hidden 256 costs seconds even at one step per chunk, and it
				// runs train-small's code at another size.
				t.Skip("over 4 s of GEMMs; run without -short")
			}
			first := quickRun(t, wd.Name, 7)
			declared := 0
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					declared++
					v, ok := first.Metrics[d.Name]
					if !ok {
						t.Errorf("declared metric %s is not reported", d.Name)
					} else if v.Unit != d.Unit {
						t.Errorf("%s reported in %q, declared in %q", d.Name, v.Unit, d.Unit)
					}
				}
			}
			if len(first.Metrics) != declared {
				t.Errorf("%d metrics reported, %d declared", len(first.Metrics), declared)
			}
			for _, d := range endToEnd {
				if first.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the contract wants it never 0", d.Name, first.Metrics[d.Name].Value)
				}
			}
			if testing.Short() && wd.Name != "serve-mixed" && wd.Name != "train-small" {
				return // the repeat runs are the slow half of the test
			}
			second := quickRun(t, wd.Name, 7)
			for _, d := range perLayer {
				if a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value; exactMetric(d.Name) && a != b {
					t.Errorf("%s must repeat exactly for a seed: %v then %v", d.Name, a, b)
				}
			}
			if wd.Name == "serve-mixed" {
				other := quickRun(t, wd.Name, 8)
				for _, name := range []string{"sim_latency_p50_ms", "serve.sim_queue_wait_ms_p50"} {
					if first.Metrics[name].Value == other.Metrics[name].Value {
						t.Errorf("%s reads %v under two seeds; arrivals should depend on the seed", name, other.Metrics[name].Value)
					}
				}
			}
		})
	}
}
