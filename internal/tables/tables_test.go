package tables

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// smallOpts shrinks the problem so a real execution is affordable in tests.
var smallOpts = Options{SeqLen: 4, Layers: 1}

func smallRow(s Scheme, gpus, q, d int) Row {
	return Row{Scheme: s, GPUs: gpus, Q: q, D: d, Batch: 8, Hidden: 16, Heads: 4}
}

// fullClusterStep times one training step of a layout on its full cluster of
// machine m — every rank, whichever cluster plan.Price would pick — with the
// stack build makes on each rank. It is the oracle a solo replay is held to.
func fullClusterStep(l parallel.Layout, opts Options, m dist.Machine, build func(f parallel.Family, w *dist.Worker) *parallel.Stack) (parallel.StepClocks, error) {
	if err := opts.check(); err != nil {
		return parallel.StepClocks{}, err
	}
	c := dist.New(dist.Config{WorldSize: l.Ranks, Machine: m})
	rp, err := parallel.NewReplay(c, func(w *dist.Worker) (*parallel.Stack, error) {
		f, err := parallel.New(w, l)
		if err != nil {
			return nil, err
		}
		return build(f, w), nil
	})
	if err != nil {
		return parallel.StepClocks{}, err
	}
	return rp.Step(!opts.NoRecompute)
}

// fullPhantomStep is the row's phantom step — RunRow's program — on the
// layout's full cluster of machine m.
func fullPhantomStep(l parallel.Layout, row Row, opts Options, m dist.Machine) (parallel.StepClocks, error) {
	w, err := opts.apply(row.workload()).WithDefaults()
	if err != nil {
		return parallel.StepClocks{}, err
	}
	return fullClusterStep(l, opts, m, func(f parallel.Family, _ *dist.Worker) *parallel.Stack {
		return parallel.NewPhantomStack(f, row.Batch, w.SeqLen, row.Hidden, row.Heads, w.Layers)
	})
}

// runRowReal times a row as RunRow does — same layout and step, on the full
// cluster — but on real random weights and inputs instead of phantoms.
// Replicated activations (Megatron) are identical on every rank; split ones
// get independent per-rank blocks.
func runRowReal(row Row, opts Options) (Result, error) {
	l, err := LayoutForRow(row)
	if err != nil {
		return Result{}, err
	}
	wl, err := opts.apply(row.workload()).WithDefaults()
	if err != nil {
		return Result{}, err
	}
	st, err := fullClusterStep(l, opts, dist.Machine{}, func(f parallel.Family, w *dist.Worker) *parallel.Stack {
		s := &parallel.Stack{Model: *parallel.NewModel(f, 0, wl.SeqLen, row.Hidden, row.Heads, wl.Layers, 0, nil, tensor.NewRNG(1))}
		sl := f.Slice(row.Batch*wl.SeqLen, row.Hidden)
		seed := uint64(1)
		if sl.Rows != row.Batch*wl.SeqLen || sl.Cols != row.Hidden {
			seed += uint64(w.Rank())
		}
		s.X = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+100))
		s.DY = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+200))
		return s
	})
	if err != nil {
		return Result{}, err
	}
	return newResult(st.Forward, st.Backward), nil
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
		real, err := runRowReal(row, smallOpts)
		if err != nil {
			t.Fatalf("%s %s real: %v", row.Scheme, row.Shape(), err)
		}
		phantom, err := RunRow(row, smallOpts)
		if err != nil {
			t.Fatalf("%s %s phantom: %v", row.Scheme, row.Shape(), err)
		}
		if real.Forward != phantom.Forward || real.Backward != phantom.Backward {
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
	card := Scorecard(nil, res2, nil, nil)
	if len(card.Claims) != 6 {
		t.Fatalf("expected 6 weak-scaling claims, got %d", len(card.Claims))
	}
	for _, c := range card.Claims {
		if c.Section != "§4.2" {
			t.Errorf("%s: section %s from Table 2 alone", c.Name, c.Section)
		}
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

// TestMemoryFormulaValues hand-checks Eq. 8 and Eq. 10.
func TestMemoryFormulaValues(t *testing.T) {
	// Eq. 8 at q=2, d=2 (p=8), a=b=c=8: ab/p + bcd/p + ac/p = 8 + 16 + 8.
	if got := memoryTesseract(8, 8, 8, 2, 2); got != 32 {
		t.Errorf("Eq. 8 = %g, want 32", got)
	}
	// Eq. 10 at p=8: 64 + 8 + 8.
	if got := memoryMegatron(8, 8, 8, 8); got != 80 {
		t.Errorf("Eq. 10 = %g, want 80", got)
	}
}

// TestMemoryComparison checks the comparison around Eq. 8 and Eq. 10:
// Megatron-LM's replicated input costs p times Tesseract's A block, which
// Tesseract's d-fold B replication does not give back.
func TestMemoryComparison(t *testing.T) {
	for _, cfg := range []struct{ q, d float64 }{{2, 1}, {4, 2}, {4, 4}, {8, 1}} {
		p := cfg.d * cfg.q * cfg.q
		if mt, mm := memoryTesseract(4096, 4096, 4096, cfg.q, cfg.d), memoryMegatron(4096, 4096, 4096, p); mt >= mm {
			t.Errorf("[%g,%g,%g]: Tesseract holds %g elements, Megatron-LM %g", cfg.q, cfg.q, cfg.d, mt, mm)
		}
		// With c = 0 only the A term is left, and it differs by exactly p.
		if mt, mm := memoryTesseract(4096, 4096, 0, cfg.q, cfg.d), memoryMegatron(4096, 4096, 0, p); mm/mt != p {
			t.Errorf("[%g,%g,%g]: A terms %g and %g, want a ratio of %g", cfg.q, cfg.q, cfg.d, mt, mm, p)
		}
	}
}

// TestTransferCountsAt64 holds the study's paper counts to §3.1's formulas at
// p = 64 — 2p^{3/2} − 2p^{1/2} for Cannon, 2p − 2p^{1/3} for 2.5-D and
// 2p^{2/3} for Tesseract — and their quotients to §1's 31.5× and 3.75×.
func TestTransferCountsAt64(t *testing.T) {
	points, err := TransmissionStudy()
	if err != nil {
		t.Fatal(err)
	}
	const p = 64.0
	for i, want := range []struct{ count, ratio float64 }{
		{2*math.Pow(p, 1.5) - 2*math.Sqrt(p), 31.5},
		{2*p - 2*math.Cbrt(p), 3.75},
		{2 * math.Pow(p, 2.0/3), 1},
	} {
		pt := points[i]
		if math.Abs(float64(pt.Paper)-want.count) > 1e-9 || math.Abs(pt.PaperRatio-want.ratio) > 1e-9 {
			t.Errorf("%s: paper count %d (%gx), §3.1 gives %g (%gx)", pt.Algorithm, pt.Paper, pt.PaperRatio, want.count, want.ratio)
		}
	}
}

// TestTransmissionStudy pins the paper's §3.1 counts and what one
// [4096,4096]·[4096,4096] multiply measures: Cannon's 1008 is its block
// messages and Tesseract's 32 its rounds ÷ d, while 2.5-D's 120 is no
// measured count; in bytes and in seconds neither §1 ratio is reached.
func TestTransmissionStudy(t *testing.T) {
	points, err := TransmissionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	tess := points[2]
	for i, want := range []struct {
		paper                   int
		paperRatio              float64
		messages, rounds, bytes int64
		unit                    string
	}{
		{1008, 31.5, 1008, 1008, 2113929216, "block messages"},
		{120, 3.75, 288, 144, 2415919104, ""},
		{32, 1, 384, 128, 2013265920, "rounds ÷ d"},
	} {
		p := points[i]
		if p.Paper != want.paper || p.PaperRatio != want.paperRatio || p.PaperUnit != want.unit {
			t.Errorf("%s: paper %d (%gx, unit %q), want %d (%gx, unit %q)",
				p.Algorithm, p.Paper, p.PaperRatio, p.PaperUnit, want.paper, want.paperRatio, want.unit)
		}
		if p.Messages != want.messages || p.Rounds != want.rounds || p.Bytes != want.bytes {
			t.Errorf("%s: %d messages, %d rounds, %d bytes; want %d, %d, %d",
				p.Algorithm, p.Messages, p.Rounds, p.Bytes, want.messages, want.rounds, want.bytes)
		}
		if p.ByteRatio != float64(p.Bytes)/float64(tess.Bytes) || p.SecondRatio != p.Seconds/tess.Seconds {
			t.Errorf("%s: ratios %g, %g do not divide by Tesseract's run", p.Algorithm, p.ByteRatio, p.SecondRatio)
		}
		if i < 2 && (p.ByteRatio <= 1 || p.ByteRatio >= p.PaperRatio || p.SecondRatio >= p.PaperRatio) {
			t.Errorf("%s: %gx in bytes, %gx in seconds against the paper's %gx", p.Algorithm, p.ByteRatio, p.SecondRatio, p.PaperRatio)
		}
	}
	// The scorecard's §1 verdicts: in bytes each ratio goes the paper's way,
	// in seconds each fails (Cannon and 2.5-D both beat Tesseract).
	claims := Scorecard(nil, nil, points, nil).Claims
	for i, want := range []Verdict{Direction, Fails, Direction, Fails} {
		if c := claims[i]; c.Section != "§1" || c.Verdict() != want {
			t.Errorf("%s %s: %.3fx against %.3fx is %s, want %s", c.Section, c.Name, c.Measured, c.Paper, c.Verdict(), want)
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
		if p.MeasuredFrac == 0 {
			t.Errorf("%s: pipelined schedule hid no comm at all", p.Row.Shape())
		}
	}
	out := FormatOverlap(points)
	for _, want := range []string{"meas frac", "[2,2,2]"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted overlap study missing %q:\n%s", want, out)
		}
	}
}

// TestNegativeOptionsAreOneError: a negative sequence length or layer count
// is one error from every entry point that takes Options, before any cluster is built — they used to
// print ±Inf rows or die inside a worker on negative tensor dimensions. Zero
// keeps meaning "default".
func TestNegativeOptionsAreOneError(t *testing.T) {
	row := smallRow(Megatron, 2, 0, 0)
	if _, err := RunRow(row, Options{}); err != nil {
		t.Fatalf("zero options must select the defaults: %v", err)
	}
	for name, bad := range map[string]Options{
		"seqlen": {SeqLen: -1},
		"layers": {Layers: -1},
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
			"ServingPlannerStudy": func() error { _, err := ServingPlannerStudy(bad); return err },
		}
		for entry, run := range entries {
			err := run()
			if err == nil || !strings.Contains(err.Error(), "tables: ") || strings.Contains(err.Error(), "\n") {
				t.Errorf("%s with bad %s: got %v, want one tables error", entry, name, err)
			}
		}
	}
}
