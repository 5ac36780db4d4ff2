package tables

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/plan"
)

// smallOpts shrinks the problem so Real mode is affordable in tests.
var smallOpts = Options{SeqLen: 4, Layers: 1}

func smallRow(s Scheme, gpus, q, d int) Row {
	return Row{Scheme: s, GPUs: gpus, Q: q, D: d, Batch: 8, Hidden: 16, Heads: 4}
}

func TestPhantomMatchesRealTiming(t *testing.T) {
	// The headline guarantee of the harness: a row timed with phantom
	// tensors reports exactly the simulated clocks of the real execution.
	for _, row := range []Row{
		smallRow(Tesseract, 8, 2, 2),
		smallRow(Tesseract, 4, 2, 1),
		smallRow(Optimus, 4, 2, 0),
		smallRow(Megatron, 4, 0, 0),
	} {
		opts := smallOpts
		opts.Real = true
		real, err := RunRow(row, opts)
		if err != nil {
			t.Fatalf("%s %s real: %v", row.Scheme, row.Shape(), err)
		}
		phantom, err := RunRow(row, smallOpts)
		if err != nil {
			t.Fatalf("%s %s phantom: %v", row.Scheme, row.Shape(), err)
		}
		if relDiff(real.Forward, phantom.Forward) > 1e-12 || relDiff(real.Backward, phantom.Backward) > 1e-12 {
			t.Fatalf("%s %s: phantom (%g, %g) != real (%g, %g)",
				row.Scheme, row.Shape(), phantom.Forward, phantom.Backward, real.Forward, real.Backward)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

func TestRunRowDeterministic(t *testing.T) {
	row := smallRow(Tesseract, 8, 2, 2)
	a, err := RunRow(row, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRow(row, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic timing: %+v vs %+v", a, b)
	}
}

func TestTable1ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-worker table in -short mode")
	}
	results, err := RunTable(Table1Rows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(s Scheme, gpus, q, d int) Result {
		r, ok := find(results, s, gpus, q, d)
		if !ok {
			t.Fatalf("missing row %s %d [%d,%d]", s, gpus, q, d)
		}
		return r.Measured
	}
	t444 := get(Tesseract, 64, 4, 4)
	t881 := get(Tesseract, 64, 8, 1)
	m64 := get(Megatron, 64, 0, 0)
	o88 := get(Optimus, 64, 8, 0)

	// §4.1: at 64 GPUs Tesseract [4,4,4] has the lowest forward time.
	for name, r := range map[string]Result{"Megatron": m64, "Optimus": o88, "[8,8,1]": t881} {
		if t444.Forward >= r.Forward {
			t.Errorf("Tesseract [4,4,4] fwd %.4f should beat %s fwd %.4f", t444.Forward, name, r.Forward)
		}
	}
	// Backward: the SUMMA-family schemes run two extra broadcast+reduce
	// passes (Eq. 3), so the structural backward win is against the other
	// SUMMA schemes. (The paper's Megatron rows show bwd ≈ 4.4×fwd, an
	// implementation overhead our first-principles model does not copy.)
	for name, r := range map[string]Result{"Optimus": o88, "[8,8,1]": t881} {
		if t444.Backward >= r.Backward {
			t.Errorf("Tesseract [4,4,4] bwd %.4f should beat %s bwd %.4f", t444.Backward, name, r.Backward)
		}
	}
	// Depth helps at fixed q (paper: [2,2,2] vs [2,2,1], [4,4,2] vs [4,4,1]).
	if get(Tesseract, 8, 2, 2).Forward >= get(Tesseract, 4, 2, 1).Forward {
		t.Error("[2,2,2] should beat [2,2,1] forward")
	}
	if get(Tesseract, 32, 4, 2).Forward >= get(Tesseract, 16, 4, 1).Forward {
		t.Error("[4,4,2] should beat [4,4,1] forward")
	}
	// Optimus [q,q] and Tesseract [q,q,1] are the same algorithm here.
	if relDiff(get(Optimus, 16, 4, 0).Forward, get(Tesseract, 16, 4, 1).Forward) > 1e-12 {
		t.Error("Optimus [4,4] must time identically to Tesseract [4,4,1]")
	}
	// Rough factor check against the paper's 1.3751x (within a factor band).
	sp := m64.Forward / t444.Forward
	if sp < 1.05 || sp > 2.5 {
		t.Errorf("speedup vs Megatron = %.2fx, expected within [1.05, 2.5] around the paper's 1.38x", sp)
	}
}

func TestTable2ShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full 64-worker table in -short mode")
	}
	results, err := RunTable(Table2Rows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(s Scheme, gpus, q, d int) Result {
		r, ok := find(results, s, gpus, q, d)
		if !ok {
			t.Fatalf("missing row %s %d [%d,%d]", s, gpus, q, d)
		}
		return r.Measured
	}
	t444 := get(Tesseract, 64, 4, 4)
	t881 := get(Tesseract, 64, 8, 1)
	o88 := get(Optimus, 64, 8, 0)

	// §4.2: [4,4,4] beats [8,8,1] and Optimus [8,8] on both metrics.
	if t444.Throughput <= t881.Throughput || t444.Inference <= t881.Inference {
		t.Error("[4,4,4] should beat [8,8,1] in weak scaling")
	}
	if t444.Throughput <= o88.Throughput || t444.Inference <= o88.Inference {
		t.Error("[4,4,4] should beat Optimus [8,8] in weak scaling")
	}
	// Weak scaling within Tesseract: doubling depth doubles the batch at
	// (approximately) constant time — the defining property of the column.
	t221 := get(Tesseract, 4, 2, 1)
	t222 := get(Tesseract, 8, 2, 2)
	if relDiff(t221.Forward, t222.Forward) > 0.25 {
		t.Errorf("[2,2,1] and [2,2,2] forward should be close: %.4f vs %.4f", t221.Forward, t222.Forward)
	}
	t441 := get(Tesseract, 16, 4, 1)
	if relDiff(t441.Forward, t444.Forward) > 0.25 {
		t.Errorf("[4,4,1] and [4,4,4] forward should be close: %.4f vs %.4f", t441.Forward, t444.Forward)
	}
}

func TestSpeedupDerivations(t *testing.T) {
	if testing.Short() {
		t.Skip("full tables in -short mode")
	}
	res1, err := RunTable(Table1Rows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := StrongScalingSpeedups(res1)
	if len(sp) != 3 {
		t.Fatalf("expected 3 strong-scaling speedups, got %d", len(sp))
	}
	for _, s := range sp {
		if s.Measured <= 1 {
			t.Errorf("%s should exceed 1x, got %.3f", s.Name, s.Measured)
		}
	}
	res2, err := RunTable(Table2Rows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	wsp := WeakScalingSpeedups(res2)
	if len(wsp) == 0 {
		t.Fatal("no weak-scaling speedups derived")
	}
}

func TestBackwardIncludesRecompute(t *testing.T) {
	row := smallRow(Tesseract, 4, 2, 1)
	with, err := RunRow(row, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	optsNo := smallOpts
	optsNo.NoRecompute = true
	without, err := RunRow(row, optsNo)
	if err != nil {
		t.Fatal(err)
	}
	if with.Backward <= without.Backward {
		t.Fatal("recompute must add the forward cost to the backward phase")
	}
	if relDiff(with.Backward, without.Backward+with.Forward) > 1e-9 {
		t.Fatalf("bwd(with) = %g should equal bwd(without) %g + fwd %g",
			with.Backward, without.Backward, with.Forward)
	}
}

func TestDepthAblationMonotonic(t *testing.T) {
	points, err := DepthAblation(4, []int{1, 2, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Forward >= points[i-1].Forward {
			t.Errorf("depth %d forward %.4f should beat depth %d forward %.4f",
				points[i].D, points[i].Forward, points[i-1].D, points[i-1].Forward)
		}
	}
}

// TestMemoryStudyFormulaMatchesMeasured holds Eq. 8/10 to a run: the formula
// is the operand blocks plus the result a rank of the phantom multiply
// holds. The peak shows what the equations leave out — SUMMA's two receive
// panels per operand — and nothing for Megatron-LM, whose product needs no
// transient.
func TestMemoryStudyFormulaMatchesMeasured(t *testing.T) {
	points, err := MemoryStudy(4096, 4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("%d arrangements, want 8", len(points))
	}
	for _, p := range points {
		if math.Abs(p.FormulaElems-float64(p.MeasuredElems)) > 0.5 {
			t.Errorf("%s: formula %.0f vs measured %d", p.Label, p.FormulaElems, p.MeasuredElems)
		}
		if tess := strings.HasPrefix(p.Label, "Tesseract"); tess != (p.PeakElems > p.MeasuredElems) || p.PeakElems < p.MeasuredElems {
			t.Errorf("%s: holds %d elements, peaks at %d", p.Label, p.MeasuredElems, p.PeakElems)
		}
	}
	if _, err := MemoryStudy(8, 8, 8); err == nil {
		t.Error("8 rows do not divide over [4,4,4]: want an error")
	}
}

func TestTransmissionStudy(t *testing.T) {
	points, err := TransmissionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	// The formula column must reproduce the paper's 31.5x / 3.75x exactly.
	if math.Abs(points[0].RatioToTesseract-31.5) > 1e-9 {
		t.Errorf("Cannon ratio %.4f, want 31.5", points[0].RatioToTesseract)
	}
	if math.Abs(points[1].RatioToTesseract-3.75) > 1e-9 {
		t.Errorf("2.5D ratio %.4f, want 3.75", points[1].RatioToTesseract)
	}
	// Cannon's measured block count equals its formula exactly (2q³−2q).
	if points[0].MeasuredBlocks != int64(math.Round(points[0].Formula)) {
		t.Errorf("Cannon measured %d, formula %.0f", points[0].MeasuredBlocks, points[0].Formula)
	}
	// The measured column uses a finer-grained convention (every pairwise
	// transfer inside a collective counts), so the broadcast-based
	// algorithms report more block messages than the paper's per-operation
	// count; Cannon, which has no collectives, must still lead by far.
	if points[0].MeasuredBlocks <= points[1].MeasuredBlocks || points[0].MeasuredBlocks <= points[2].MeasuredBlocks {
		t.Errorf("Cannon must move the most blocks: %+v", points)
	}
	// The counts themselves are a property of the three schedules: the
	// 2.5-D depth broadcasts and all-reduce and SUMMA's panel broadcasts
	// book the same transfers whichever buffers they land in.
	for i, want := range []int64{1008, 288, 384} {
		if points[i].MeasuredBlocks != want {
			t.Errorf("%s measured %d blocks, want %d", points[i].Algorithm, points[i].MeasuredBlocks, want)
		}
	}
}

func TestFormatOutputs(t *testing.T) {
	row := smallRow(Tesseract, 4, 2, 1)
	res, err := RunRow(row, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	out := Format("test table", []TableResult{{Row: row, Measured: res}})
	for _, want := range []string{"test table", "Tesseract", "[2,2,1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	points, err := MemoryStudy(16, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	mem := FormatMemory(16, 16, 64, points)
	for _, want := range []string{"Megatron-LM", "measured", "peak"} {
		if !strings.Contains(mem, want) {
			t.Errorf("memory table missing %q:\n%s", want, mem)
		}
	}
}

func TestRowShapeStrings(t *testing.T) {
	if got := smallRow(Megatron, 4, 0, 0).Shape(); got != "[4]" {
		t.Errorf("Megatron shape %q", got)
	}
	if got := smallRow(Optimus, 4, 2, 0).Shape(); got != "[2,2]" {
		t.Errorf("Optimus shape %q", got)
	}
	if got := smallRow(Tesseract, 8, 2, 2).Shape(); got != "[2,2,2]" {
		t.Errorf("Tesseract shape %q", got)
	}
}

func TestTableRowsWellFormed(t *testing.T) {
	for _, row := range append(Table1Rows(), Table2Rows()...) {
		if row.Scheme == Tesseract && row.GPUs != row.Q*row.Q*row.D {
			t.Errorf("row %s %s: GPUs %d != q²d", row.Scheme, row.Shape(), row.GPUs)
		}
		if row.Scheme == Optimus && row.GPUs != row.Q*row.Q {
			t.Errorf("row %s %s: GPUs %d != q²", row.Scheme, row.Shape(), row.GPUs)
		}
		if row.Paper.Forward <= 0 || row.Paper.Throughput <= 0 {
			t.Errorf("row %s %s: missing paper reference values", row.Scheme, row.Shape())
		}
		// The paper's throughput/inference columns satisfy 1/(fwd+bwd)
		// and 1/fwd; verify our transcription against that identity.
		wantThru := 1 / (row.Paper.Forward + row.Paper.Backward)
		if relDiff(wantThru, row.Paper.Throughput) > 0.02 {
			t.Errorf("row %s %s: paper throughput %.4f vs 1/(fwd+bwd) %.4f",
				row.Scheme, row.Shape(), row.Paper.Throughput, wantThru)
		}
		wantInf := 1 / row.Paper.Forward
		if relDiff(wantInf, row.Paper.Inference) > 0.02 {
			t.Errorf("row %s %s: paper inference %.4f vs 1/fwd %.4f",
				row.Scheme, row.Shape(), row.Paper.Inference, wantInf)
		}
	}
}

func TestOverlapStudy(t *testing.T) {
	rows := []Row{
		smallRow(Tesseract, 4, 2, 1),
		smallRow(Tesseract, 8, 2, 2),
		smallRow(Megatron, 4, 0, 0), // skipped: no SUMMA schedule
	}
	points, err := OverlapStudy(rows, smallOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want the 2 Tesseract rows", len(points))
	}
	for _, p := range points {
		if p.TotalCommSeconds <= 0 {
			t.Errorf("%s: no comm measured", p.Row.Shape())
		}
		if p.MeasuredFrac < 0 || p.MeasuredFrac > 1 {
			t.Errorf("%s: measured fraction %g outside [0,1]", p.Row.Shape(), p.MeasuredFrac)
		}
		if p.PredictedFrac < 0 || p.PredictedFrac > 1 {
			t.Errorf("%s: predicted fraction %g outside [0,1]", p.Row.Shape(), p.PredictedFrac)
		}
		if p.MeasuredFrac == 0 {
			t.Errorf("%s: pipelined schedule hid no comm at all", p.Row.Shape())
		}
	}
	out := FormatOverlap(points)
	for _, want := range []string{"pred frac", "[2,2,2]"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted overlap study missing %q:\n%s", want, out)
		}
	}
}

func TestFamilyParityStudy(t *testing.T) {
	points, err := FamilyParityStudy(DefaultFamilyLayouts())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(points))
	}
	for _, p := range points {
		if p.MaxDiffY > 1e-9 || p.MaxDiffDx > 1e-9 {
			t.Errorf("%s diverged from serial: |Δy|=%g |Δdx|=%g", p.Layout, p.MaxDiffY, p.MaxDiffDx)
		}
		if p.SimSeconds <= 0 || p.Bytes <= 0 {
			t.Errorf("%s reported no simulated cost (%gs, %dB)", p.Layout, p.SimSeconds, p.Bytes)
		}
	}
}

// TestNegativeOptionsAreOneError: a negative sequence length, layer count or
// node size (or a cost model no cluster accepts) is one error from every
// entry point that takes Options, before any cluster is built — they used to
// print ±Inf rows or die inside a worker on negative tensor dimensions. Zero
// keeps meaning "default".
func TestNegativeOptionsAreOneError(t *testing.T) {
	row := smallRow(Megatron, 2, 0, 0)
	if _, err := RunRow(row, Options{}); err != nil {
		t.Fatalf("zero options must select the defaults: %v", err)
	}
	for name, bad := range map[string]Options{
		"seqlen":        {SeqLen: -1},
		"layers":        {Layers: -1},
		"gpus per node": {GPUsPerNode: -4},
		"cost":          {Cost: dist.CostModel{Alpha: -1}},
	} {
		entries := map[string]func() error{
			"RunRow":   func() error { _, err := RunRow(row, bad); return err },
			"RunTable": func() error { _, err := RunTable([]Row{row}, bad); return err },
			"DepthAblation": func() error {
				_, err := DepthAblation(2, []int{1}, bad)
				return err
			},
			"OverlapStudy": func() error {
				_, err := OverlapStudy([]Row{smallRow(Tesseract, 4, 2, 1)}, bad)
				return err
			},
			"PlannerStudy": func() error {
				_, err := PlannerStudy(PlannerScenarios()[:1], 1, bad)
				return err
			},
			"ServingPlannerStudy": func() error { _, err := ServingPlannerStudy(1, bad); return err },
		}
		if name == "gpus per node" || name == "cost" {
			// The workload overrides SeqLen and Layers; the rest is Options'.
			entries["MeasurePlan"] = func() error {
				w := plan.Workload{Batch: 8, SeqLen: 4, Hidden: 16, Heads: 4}
				_, err := MeasurePlan(w, bad)(plan.Plan{Family: "megatron", Grid: plan.Grid{Ranks: 2}})
				return err
			}
		}
		for entry, run := range entries {
			err := run()
			if err == nil || !strings.Contains(err.Error(), "tables: ") || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s with bad %s: got %v, want one tables error", entry, name, err)
			}
		}
	}
}
