package tables

import (
	"fmt"
	"strings"

	"repro/internal/parallel"
)

// TableResult pairs a row with its measured columns.
type TableResult struct {
	// Row is the configuration that was executed.
	Row Row
	// Measured holds the simulated timing columns.
	Measured Result
}

// RunTable executes every row with the same options and returns the results
// in row order. Rows are independent replays and run concurrently
// (parallel.ReplayEach); the error is the first failing row's.
func RunTable(rows []Row, opts Options) ([]TableResult, error) {
	return parallel.ReplayEach(len(rows), func(i int) (TableResult, error) {
		r := rows[i]
		res, err := RunRow(r, opts)
		if err != nil {
			return TableResult{}, fmt.Errorf("row %s %s: %w", r.Scheme, r.Shape(), err)
		}
		return TableResult{Row: r, Measured: res}, nil
	})
}

// Format renders results in the layout of the paper's tables, with the
// published numbers alongside when available.
func Format(title string, results []TableResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %5s %-9s %5s %6s %5s | %9s %9s %10s %10s | %9s %9s %10s %10s\n",
		"method", "#GPUs", "shape", "batch", "hidden", "heads",
		"fwd(s)", "bwd(s)", "thru(seq/s)", "inf(seq/s)",
		"paper-fwd", "paper-bwd", "paper-thru", "paper-inf")
	b.WriteString(strings.Repeat("-", 150) + "\n")
	for _, r := range results {
		row, m := r.Row, r.Measured
		fmt.Fprintf(&b, "%-12s %5d %-9s %5d %6d %5d | %9.4f %9.4f %10.4f %10.4f",
			row.Scheme, row.GPUs, row.Shape(), row.Batch, row.Hidden, row.Heads,
			m.Forward, m.Backward, m.Throughput, m.Inference)
		if row.Paper.Forward > 0 {
			fmt.Fprintf(&b, " | %9.4f %9.4f %10.4f %10.4f", row.Paper.Forward, row.Paper.Backward, row.Paper.Throughput, row.Paper.Inference)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Speedup is a ratio the paper states, measured and published: one of the
// §4 headline comparisons, or (in a scorecard Claim) a §1 communication
// ratio.
type Speedup struct {
	// Name describes the comparison, e.g. "throughput vs Optimus [8,8]".
	Name string
	// Measured and Paper are the simulated and published ratios.
	Measured, Paper float64
}

// find locates the result for a (scheme, gpus, q, d) row.
func find(results []TableResult, s Scheme, gpus, q, d int) (TableResult, bool) {
	for _, r := range results {
		if r.Row.Scheme == s && r.Row.GPUs == gpus && r.Row.Q == q && r.Row.D == d {
			return r, true
		}
	}
	return TableResult{}, false
}

// leaders returns the four 64-GPU rows the §4 comparisons read: Tesseract
// [4,4,4], Megatron-LM [64], Optimus [8,8] and Tesseract [8,8,1]; ok is
// false unless the results hold all four.
func leaders(results []TableResult) (t444, m64, o88, t881 Result, ok bool) {
	r1, ok1 := find(results, Tesseract, 64, 4, 4)
	r2, ok2 := find(results, Megatron, 64, 0, 0)
	r3, ok3 := find(results, Optimus, 64, 8, 0)
	r4, ok4 := find(results, Tesseract, 64, 8, 1)
	return r1.Measured, r2.Measured, r3.Measured, r4.Measured, ok1 && ok2 && ok3 && ok4
}

// StrongScalingSpeedups derives the §4.1 claims from Table 1 results:
// Tesseract [4,4,4] forward time vs Megatron [64] (paper: 1.3751×), vs
// Optimus [8,8] (1.5293×), and vs Tesseract [8,8,1] (2.0702×). The
// scorecard's §4.1 lines are these.
func StrongScalingSpeedups(results []TableResult) []Speedup {
	t444, m64, o88, t881, ok := leaders(results)
	if !ok {
		return nil
	}
	return []Speedup{
		{"forward speedup vs Megatron-LM [64]", m64.Forward / t444.Forward, 1.3751},
		{"forward speedup vs Optimus [8,8]", o88.Forward / t444.Forward, 1.5293},
		{"forward speedup vs Tesseract [8,8,1]", t881.Forward / t444.Forward, 2.0702},
	}
}
