package tables

import (
	"fmt"
	"strings"
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
// (replayEach); the error is the first failing row's.
func RunTable(rows []Row, opts Options) ([]TableResult, error) {
	return replayEach(len(rows), func(i int) (TableResult, error) {
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

// Speedup is one of the §4 headline comparisons, measured and published.
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

// StrongScalingSpeedups derives the §4.1 claims from Table 1 results:
// Tesseract [4,4,4] forward time vs Megatron [64] (paper: 1.3751×), vs
// Optimus [8,8] (1.5293×), and vs Tesseract [8,8,1] (2.0702×).
func StrongScalingSpeedups(results []TableResult) []Speedup {
	t444, ok1 := find(results, Tesseract, 64, 4, 4)
	m64, ok2 := find(results, Megatron, 64, 0, 0)
	o88, ok3 := find(results, Optimus, 64, 8, 0)
	t881, ok4 := find(results, Tesseract, 64, 8, 1)
	if !(ok1 && ok2 && ok3 && ok4) {
		return nil
	}
	return []Speedup{
		{"forward speedup vs Megatron-LM [64]", m64.Measured.Forward / t444.Measured.Forward, 1.3751},
		{"forward speedup vs Optimus [8,8]", o88.Measured.Forward / t444.Measured.Forward, 1.5293},
		{"forward speedup vs Tesseract [8,8,1]", t881.Measured.Forward / t444.Measured.Forward, 2.0702},
	}
}

// WeakScalingSpeedups derives the §4.2 claims from Table 2 results at 64
// GPUs: throughput 3.3746×/1.7144× and inference 4.0156×/1.6987× vs
// Megatron/Optimus, plus the [4,4,4]-vs-[8,8,1] ratios 1.5092×/1.5576×.
func WeakScalingSpeedups(results []TableResult) []Speedup {
	t444, ok1 := find(results, Tesseract, 64, 4, 4)
	m64, ok2 := find(results, Megatron, 64, 0, 0)
	o88, ok3 := find(results, Optimus, 64, 8, 0)
	t881, ok4 := find(results, Tesseract, 64, 8, 1)
	if !(ok1 && ok2 && ok3 && ok4) {
		return nil
	}
	perSeq := func(r TableResult) float64 {
		return (r.Measured.Forward + r.Measured.Backward) / float64(r.Row.Batch)
	}
	return []Speedup{
		{"throughput vs Megatron-LM [64]", t444.Measured.Throughput / m64.Measured.Throughput, 3.3746},
		{"throughput vs Optimus [8,8]", t444.Measured.Throughput / o88.Measured.Throughput, 1.7144},
		{"inference vs Megatron-LM [64]", t444.Measured.Inference / m64.Measured.Inference, 4.0156},
		{"inference vs Optimus [8,8]", t444.Measured.Inference / o88.Measured.Inference, 1.6987},
		{"throughput vs Tesseract [8,8,1]", t444.Measured.Throughput / t881.Measured.Throughput, 1.5092},
		{"inference vs Tesseract [8,8,1]", t444.Measured.Inference / t881.Measured.Inference, 1.5576},
		// Per-sequence normalisation (ours): Table 2 rows carry very
		// different batch sizes (768 vs 30 at 64 GPUs), so we also report
		// time-per-sequence ratios, where the partitioning advantage is
		// independent of the batch discrepancy. The paper prints no such
		// row; the reference value is the batch-ratio-adjusted throughput.
		{"per-sequence time vs Megatron-LM [64]", perSeq(m64) / perSeq(t444), 3.3746 * 768 / 30},
		{"per-sequence time vs Optimus [8,8]", perSeq(o88) / perSeq(t444), 1.7144 * 768 / 384},
	}
}

// FormatSpeedups renders a speedup list.
func FormatSpeedups(title string, sp []Speedup) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, s := range sp {
		fmt.Fprintf(&b, "  %-45s measured %6.3fx   paper %6.3fx\n", s.Name, s.Measured, s.Paper)
	}
	return b.String()
}
