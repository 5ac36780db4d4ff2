package tables

import (
	"fmt"
	"math"
	"strings"
)

// Verdict is how a measured ratio stands against the one the paper states
// (Judge).
type Verdict string

// The three verdicts of Judge.
const (
	Matches   Verdict = "matches"
	Direction Verdict = "direction"
	Fails     Verdict = "fails"
)

// Judge is the scorecard's one verdict rule: a measured ratio matches the
// paper's when measured/paper is within [0.8, 1.25]; otherwise it has the
// paper's direction when both lie on the same side of 1 (the same scheme
// wins); otherwise it fails.
func Judge(measured, paper float64) Verdict {
	switch r := measured / paper; {
	case r >= 0.8 && r <= 1.25:
		return Matches
	case measured > 1 && paper > 1, measured < 1 && paper < 1:
		return Direction
	}
	return Fails
}

// Claim is one ratio the paper states — a §4 speed-up or a §1
// communication ratio — beside the simulated one.
type Claim struct {
	// Section is where the paper states it: "§4.1", "§4.2" or "§1".
	Section string
	Speedup
}

// Ratio is measured over paper.
func (c Claim) Ratio() float64 { return c.Measured / c.Paper }

// Verdict is Judge's.
func (c Claim) Verdict() Verdict { return Judge(c.Measured, c.Paper) }

// TableError is the rms log₁₀ error of simulated against published seconds
// over a set of rows × {forward, backward}.
type TableError struct {
	// Name is "Table 1", "Table 2" or "both tables".
	Name string
	// Cells counts the values compared: two per row.
	Cells int
	// RMS is the raw error; ScaleFree the error left once one common
	// factor (the mean log ratio) is divided out, so a machine that is
	// uniformly too fast or too slow scores 0.
	RMS, ScaleFree float64
	// Worst names the row with the largest |log₁₀| error in either column,
	// and WorstErr is that error.
	Worst    string
	WorstErr float64
}

// DepthOrder is Table 1's depth ordering: forward time falls from
// [4,4,1] to [4,4,2] to [4,4,4], by at least 15 % at each step.
type DepthOrder struct {
	// Measured and Paper are the two steps' forward ratios,
	// [4,4,1]/[4,4,2] and [4,4,2]/[4,4,4].
	Measured, Paper [2]float64
}

// depthStep is the least forward ratio a step of DepthOrder must show.
const depthStep = 1.15

// Holds reports whether both measured steps are at least 15 %.
func (d DepthOrder) Holds() bool { return d.Measured[0] >= depthStep && d.Measured[1] >= depthStep }

// Card is the reproduction scorecard (Scorecard): every number the paper
// states that the studies measure, beside the measurement.
type Card struct {
	// Tables holds the error of each table that ran, then of both when
	// both did.
	Tables []TableError
	// ShapeRMS is the rms log₁₀ error of each row's backward/forward ratio
	// against the paper's, over ShapeRows rows: a row's shape, whatever the
	// machine's overall speed.
	ShapeRMS  float64
	ShapeRows int
	// Claims are the §4.1, §4.2 and §1 ratios, in that order.
	Claims []Claim
	// Depth is Table 1's depth ordering, nil without Table 1.
	Depth *DepthOrder
	// MemoryEqual of MemoryTotal arrangements hold the Eq. 7-10 formula
	// equal to the measured elements.
	MemoryEqual, MemoryTotal int
}

// Count returns how many claims have verdict v.
func (c Card) Count(v Verdict) int {
	n := 0
	for _, cl := range c.Claims {
		if cl.Verdict() == v {
			n++
		}
	}
	return n
}

// Scorecard reads the scorecard off results the studies already produced:
// the rows of Table 1 and Table 2 (either may be nil, for a table that did
// not run), TransmissionStudy's points and MemoryStudy's. It runs nothing.
// The §4.1 claims are StrongScalingSpeedups'.
func Scorecard(table1, table2 []TableResult, trans []TransmissionPoint, mem []MemoryPoint) Card {
	var c Card
	var rows []TableResult // every row that ran
	for _, t := range []struct {
		name string
		rows []TableResult
	}{{"Table 1", table1}, {"Table 2", table2}} {
		if len(t.rows) > 0 {
			c.Tables = append(c.Tables, tableError(t.name, t.rows))
			rows = append(rows, t.rows...)
		}
	}
	if len(table1) > 0 && len(table2) > 0 {
		c.Tables = append(c.Tables, tableError("both tables", rows))
	}
	var sq float64
	for _, r := range rows {
		m, p := r.Measured, r.Row.Paper
		if p.Forward > 0 {
			e := math.Log10(m.Backward / m.Forward / (p.Backward / p.Forward))
			sq += e * e
			c.ShapeRows++
		}
	}
	if c.ShapeRows > 0 {
		c.ShapeRMS = math.Sqrt(sq / float64(c.ShapeRows))
	}

	for _, s := range StrongScalingSpeedups(table1) {
		c.Claims = append(c.Claims, Claim{"§4.1", s})
	}
	if t444, m64, o88, t881, ok := leaders(table2); ok {
		for _, s := range []Speedup{
			{"throughput vs Megatron-LM [64]", t444.Throughput / m64.Throughput, 3.3746},
			{"throughput vs Optimus [8,8]", t444.Throughput / o88.Throughput, 1.7144},
			{"inference vs Megatron-LM [64]", t444.Inference / m64.Inference, 4.0156},
			{"inference vs Optimus [8,8]", t444.Inference / o88.Inference, 1.6987},
			{"throughput vs Tesseract [8,8,1]", t444.Throughput / t881.Throughput, 1.5092},
			{"inference vs Tesseract [8,8,1]", t444.Inference / t881.Inference, 1.5576},
		} {
			c.Claims = append(c.Claims, Claim{"§4.2", s})
		}
	}
	if len(trans) > 0 {
		tess := trans[len(trans)-1]
		for _, p := range trans[:len(trans)-1] {
			vs := p.Algorithm + " vs " + tess.Algorithm
			c.Claims = append(c.Claims,
				Claim{"§1", Speedup{"bytes, " + vs, p.ByteRatio, p.PaperRatio}},
				Claim{"§1", Speedup{"seconds, " + vs, p.SecondRatio, p.PaperRatio}})
		}
	}

	t441, ok1 := find(table1, Tesseract, 16, 4, 1)
	t442, ok2 := find(table1, Tesseract, 32, 4, 2)
	t444, ok3 := find(table1, Tesseract, 64, 4, 4)
	if ok1 && ok2 && ok3 {
		c.Depth = &DepthOrder{
			Measured: [2]float64{t441.Measured.Forward / t442.Measured.Forward, t442.Measured.Forward / t444.Measured.Forward},
			Paper:    [2]float64{t441.Row.Paper.Forward / t442.Row.Paper.Forward, t442.Row.Paper.Forward / t444.Row.Paper.Forward},
		}
	}

	c.MemoryTotal = len(mem)
	for _, p := range mem {
		if p.FormulaElems == float64(p.MeasuredElems) {
			c.MemoryEqual++
		}
	}
	return c
}

// tableError is the rms log₁₀ error of rows' forward and backward seconds
// against the paper's, raw and scale-free, with the worst row. Rows the
// paper does not print are skipped.
func tableError(name string, rows []TableResult) TableError {
	e := TableError{Name: name}
	var sum, sq float64
	for _, r := range rows {
		m, p := r.Measured, r.Row.Paper
		if p.Forward <= 0 {
			continue
		}
		for _, v := range [2]float64{math.Log10(m.Forward / p.Forward), math.Log10(m.Backward / p.Backward)} {
			sum += v
			sq += v * v
			e.Cells++
			if math.Abs(v) > e.WorstErr {
				e.Worst, e.WorstErr = string(r.Row.Scheme)+" "+r.Row.Shape(), math.Abs(v)
			}
		}
	}
	if e.Cells > 0 {
		n := float64(e.Cells)
		mean := sum / n
		e.RMS = math.Sqrt(sq / n)
		e.ScaleFree = math.Sqrt(math.Max(0, sq/n-mean*mean))
	}
	return e
}

// FormatScorecard renders the scorecard: the table errors, the row-shape
// error, one line per claim with its verdict, the depth ordering and the
// memory equations.
func FormatScorecard(c Card) string {
	var b strings.Builder
	b.WriteString("Reproduction scorecard (verdict: matches if measured/paper is within 0.8-1.25x, direction if both are on the same side of 1, fails otherwise)\n")
	if len(c.Tables) > 0 {
		b.WriteString("error: rms log10(simulated/paper) over rows x {fwd, bwd}; scale-free divides out one common factor\n")
		for _, e := range c.Tables {
			fmt.Fprintf(&b, "  %-12s %3d values   rms %.4f   scale-free %.4f   worst %s at %.3f\n",
				e.Name, e.Cells, e.RMS, e.ScaleFree, e.Worst, e.WorstErr)
		}
		fmt.Fprintf(&b, "  %-12s %3d rows     rms %.4f   (each row's bwd/fwd against the paper's)\n", "row shape", c.ShapeRows, c.ShapeRMS)
	}
	if len(c.Claims) > 0 {
		fmt.Fprintf(&b, "%-5s %-46s %9s %9s %8s  %s\n", "", "claim", "measured", "paper", "ratio", "verdict")
		for _, cl := range c.Claims {
			fmt.Fprintf(&b, "%-5s %-46s %8.3fx %8.3fx %7.3fx  %s\n", cl.Section, cl.Name, cl.Measured, cl.Paper, cl.Ratio(), cl.Verdict())
		}
		fmt.Fprintf(&b, "verdicts: %d matches, %d direction, %d fails\n", c.Count(Matches), c.Count(Direction), c.Count(Fails))
	}
	if d := c.Depth; d != nil {
		verdict := "holds"
		if !d.Holds() {
			verdict = "fails"
		}
		fmt.Fprintf(&b, "§4.1 depth ordering, Table 1 forward [4,4,1] > [4,4,2] > [4,4,4] by >= 15%% a step: measured %.3fx, %.3fx; paper %.3fx, %.3fx: %s\n",
			d.Measured[0], d.Measured[1], d.Paper[0], d.Paper[1], verdict)
	}
	if c.MemoryTotal > 0 {
		fmt.Fprintf(&b, "Eqs. 7-10, formula = measured elements on %d of %d arrangements\n", c.MemoryEqual, c.MemoryTotal)
	}
	return b.String()
}
