package tables

import (
	"strings"
	"testing"
)

// TestScorecardBounds is the reproduction's ratchet: each rms log₁₀ error of
// the scorecard over Tables 1 and 2 stays at or below its bound, and the
// number of claims whose verdict is "matches" at or above its floor. A
// change that lowers an error lowers its bound here, in the same change, to
// the new value rounded up at the third decimal, and one that raises the
// "matches" count raises the floor. A change that raises an error, or loses
// a match, is a declared regression: it moves the bound and names the
// regression in its title and in CHANGES.md.
func TestScorecardBounds(t *testing.T) {
	table1, err := RunTable(Table1Rows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	table2, err := RunTable(Table2Rows(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	trans, err := TransmissionStudy()
	if err != nil {
		t.Fatal(err)
	}
	card := Scorecard(table1, table2, trans, nil)

	bounds := []struct {
		name           string
		rms, scaleFree float64
	}{
		{"Table 1", 0.952, 0.642},
		{"Table 2", 0.837, 0.832},
		{"both tables", 0.894, 0.808},
	}
	if len(card.Tables) != len(bounds) {
		t.Fatalf("%d table errors, want %d", len(card.Tables), len(bounds))
	}
	for i, b := range bounds {
		e := card.Tables[i]
		if e.Name != b.name {
			t.Fatalf("table error %d is %q, want %q", i, e.Name, b.name)
		}
		if e.RMS > b.rms {
			t.Errorf("%s: rms log10 error %.4f above its bound %.3f", e.Name, e.RMS, b.rms)
		}
		if e.ScaleFree > b.scaleFree {
			t.Errorf("%s: scale-free rms log10 error %.4f above its bound %.3f", e.Name, e.ScaleFree, b.scaleFree)
		}
	}
	if card.ShapeRows != 25 || card.ShapeRMS > 0.188 {
		t.Errorf("row shape: rms log10 error %.4f over %d rows, bound 0.188 over 25", card.ShapeRMS, card.ShapeRows)
	}
	if n := card.Count(Matches); n < 3 {
		t.Errorf("%d claims match the paper, floor 3", n)
	}
}

// TestJudge is the one verdict rule on its own, at the edges of the match
// band.
func TestJudge(t *testing.T) {
	for _, c := range []struct {
		measured, paper float64
		want            Verdict
	}{
		{1.3751, 1.3751, Matches},
		{0.8, 1, Matches},
		{1.25, 1, Matches},
		{1.1, 1.5, Direction}, // 0.73x, both above 1
		{0.5, 0.9, Direction}, // 0.56x, both below 1
		{0.57, 31.5, Fails},   // the other side of 1
		{1, 2, Fails},         // a tie is on neither side
		{40, 1.7, Direction},  // far too large, but the same winner
		{0.79, 1.001, Fails},  // outside the band and across 1
		{1.26, 0.999, Fails},  // ditto, the other way
		{0.7, 0.7 / 1.25, Matches},
	} {
		if got := Judge(c.measured, c.paper); got != c.want {
			t.Errorf("Judge(%g, %g) = %s, want %s", c.measured, c.paper, got, c.want)
		}
	}
}

// synthTable1 is a Table 1 of the six Tesseract and baseline rows the
// scorecard reads, with the given forward seconds and the paper's own
// columns; backward is twice forward throughout.
func synthTable1(t444, m64, o88, t881, t441, t442 float64) []TableResult {
	row := func(s Scheme, gpus, q, d int, fwd, paperFwd float64) TableResult {
		return TableResult{
			Row:      Row{Scheme: s, GPUs: gpus, Q: q, D: d, Paper: newResult(paperFwd, 2*paperFwd)},
			Measured: newResult(fwd, 2*fwd),
		}
	}
	return []TableResult{
		row(Megatron, 64, 0, 0, m64, 0.1195),
		row(Optimus, 64, 8, 0, o88, 0.1329),
		row(Tesseract, 16, 4, 1, t441, 0.1444),
		row(Tesseract, 32, 4, 2, t442, 0.1244),
		row(Tesseract, 64, 4, 4, t444, 0.0869),
		row(Tesseract, 64, 8, 1, t881, 0.1799),
	}
}

// TestScorecardSynthetic reads a scorecard off made-up Table 1 results:
// one §4.1 claim of each verdict, the depth ordering on either side of its
// 15 % step, and the table error of a machine that is uniformly 10× slow.
func TestScorecardSynthetic(t *testing.T) {
	// Against [4,4,4] at 1 s: Megatron at 1.4 s is 1.40x (paper 1.38x),
	// Optimus at 1.1 s is 1.10x (paper 1.53x), [8,8,1] at 0.5 s is 0.50x
	// (paper 2.07x). Depth steps 1.3 and 1.2.
	card := Scorecard(synthTable1(1, 1.4, 1.1, 0.5, 1.56, 1.2), nil, nil, nil)
	want := []Verdict{Matches, Direction, Fails}
	if len(card.Claims) != len(want) {
		t.Fatalf("%d claims from Table 1, want %d", len(card.Claims), len(want))
	}
	for i, v := range want {
		if c := card.Claims[i]; c.Section != "§4.1" || c.Verdict() != v {
			t.Errorf("%s %s: %.3fx against %.3fx is %s, want %s", c.Section, c.Name, c.Measured, c.Paper, c.Verdict(), v)
		}
	}
	if card.Count(Matches) != 1 || card.Count(Direction) != 1 || card.Count(Fails) != 1 {
		t.Errorf("verdict counts %d/%d/%d, want 1/1/1", card.Count(Matches), card.Count(Direction), card.Count(Fails))
	}
	if card.Depth == nil || !card.Depth.Holds() {
		t.Errorf("depth steps %v of at least 1.15 must hold", card.Depth)
	}
	// One step of 14 %: ordered, but not by the paper's margin.
	if d := Scorecard(synthTable1(1, 1.4, 1.1, 0.5, 1.14*1.2, 1.2), nil, nil, nil).Depth; d == nil || d.Holds() {
		t.Errorf("depth steps %v with a 1.14 step must fail", d)
	}
	if d := Scorecard(nil, nil, nil, nil).Depth; d != nil {
		t.Errorf("depth ordering %v without Table 1", d)
	}

	// Every cell 10× the paper's: rms 1, scale-free 0.
	var slow []TableResult
	for _, r := range synthTable1(1, 1, 1, 1, 1, 1) {
		r.Measured = newResult(10*r.Row.Paper.Forward, 10*r.Row.Paper.Backward)
		slow = append(slow, r)
	}
	e := Scorecard(slow, nil, nil, nil).Tables[0]
	if e.Cells != 12 || relDiff(e.RMS, 1) > 1e-12 || e.ScaleFree > 1e-6 {
		t.Errorf("a uniformly 10x slow table: %d values, rms %g, scale-free %g; want 12, 1, 0", e.Cells, e.RMS, e.ScaleFree)
	}
}

// TestFormatScorecard: every claim line carries measured, paper, ratio and
// verdict, and the depth and memory lines print their outcome (compared with
// runs of spaces folded to one).
func TestFormatScorecard(t *testing.T) {
	mem := []MemoryPoint{{FormulaElems: 4, MeasuredElems: 4}, {FormulaElems: 4, MeasuredElems: 5}}
	out := FormatScorecard(Scorecard(synthTable1(1, 1.4, 1.1, 0.5, 1.56, 1.2), nil, nil, mem))
	flat := strings.Join(strings.Fields(out), " ")
	for _, want := range []string{
		"§4.1 forward speedup vs Megatron-LM [64] 1.400x 1.375x 1.018x matches",
		"§4.1 forward speedup vs Tesseract [8,8,1] 0.500x 2.070x 0.242x fails",
		"verdicts: 1 matches, 1 direction, 1 fails",
		"measured 1.300x, 1.200x; paper 1.161x, 1.432x: holds",
		"formula = measured elements on 1 of 2 arrangements",
	} {
		if !strings.Contains(flat, want) {
			t.Errorf("scorecard lacks %q:\n%s", want, out)
		}
	}
}
