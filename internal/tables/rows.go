// Package tables is the experiment harness: it re-runs every row of the
// paper's Table 1 (strong scaling) and Table 2 (weak scaling) on the
// simulated cluster, regenerates the §1/§3.1 transmission-count and memory
// comparisons, and sets every number the paper states beside its
// measurement in one scorecard (Scorecard). Timing rows run
// in phantom mode at the paper's true sizes (hidden 2048-8192): the layer
// code executes its full communication schedule while matrices stay
// shape-only, so a 64-GPU row completes in milliseconds of wall time while
// the simulated clocks report the α-β/FLOPS cost of the real schedule.
//
// Table rows, planner-study leaders and depth points are plan.Price calls
// (rank 0 alone wherever that is exact); overlap rows replay the full cluster.
// Each is an independent replay on a cluster of its own, run up to GOMAXPROCS
// at a time (parallel.ReplayEach); results keep the input's order and every number is
// what one replay after another gives.
// There is nothing to configure and nothing is kept between calls — see
// docs/architecture.md, "tables: independent replays".
package tables

import (
	"fmt"

	"repro/internal/plan"
)

// Scheme names a tensor-parallel method under test.
type Scheme string

// The three schemes of Tables 1 and 2, plus the sequence-parallel
// follow-up family the studies compare them against.
const (
	Megatron  Scheme = "Megatron-LM"
	Optimus   Scheme = "Optimus"
	Tesseract Scheme = "Tesseract"
	SeqPar    Scheme = "SeqPar"
)

// Row is one experiment configuration (one table row).
type Row struct {
	Scheme Scheme
	// GPUs is the tensor-parallel group size p.
	GPUs int
	// Q and D describe the mesh: Megatron uses neither (shape [p]),
	// Optimus uses Q ([q, q]), Tesseract uses both ([q, q, d]).
	Q, D int
	// Batch, Hidden, Heads are the model parameters of the row.
	Batch, Hidden, Heads int
	// Paper holds the published measurements printed alongside the
	// simulated columns (zero when the paper has no such row).
	Paper Result
}

// Shape renders the GPU arrangement the way the paper prints it.
func (r Row) Shape() string {
	switch r.Scheme {
	case Megatron, SeqPar:
		return fmt.Sprintf("[%d]", r.GPUs)
	case Optimus:
		return fmt.Sprintf("[%d,%d]", r.Q, r.Q)
	default:
		return fmt.Sprintf("[%d,%d,%d]", r.Q, r.Q, r.D)
	}
}

// workload is the row's model as the planner prices it.
func (r Row) workload() plan.Workload {
	return plan.Workload{Batch: r.Batch, Hidden: r.Hidden, Heads: r.Heads}
}

// Result holds the four measured columns of Tables 1 and 2.
type Result struct {
	// Forward and Backward are seconds per batch.
	Forward, Backward float64
	// Throughput is 1/(forward+backward) and Inference is 1/forward,
	// i.e. batches per second. The paper labels the columns "sequences
	// per second", but its printed values satisfy exactly
	// throughput = 1/(fwd+bwd) and inference = 1/fwd on every row
	// (e.g. Table 2's [4,4,4]: 1/(0.1155+0.3468) = 2.1631), so we use the
	// same definition to keep every derived speedup comparable.
	Throughput, Inference float64
}

func newResult(fwd, bwd float64) Result {
	return Result{
		Forward:    fwd,
		Backward:   bwd,
		Throughput: 1 / (fwd + bwd),
		Inference:  1 / fwd,
	}
}

// DefaultSeqLen is the sequence length used by the timing experiments:
// plan's default.
const DefaultSeqLen = plan.DefaultSeqLen

// Table1Rows returns the twelve strong-scaling configurations of Table 1:
// fixed problem (batch 12, hidden 3072, 64 heads), with batch 16 for the
// [4,4,4] row exactly as the paper does (batch must divide d·q).
func Table1Rows() []Row {
	return []Row{
		{Scheme: Megatron, GPUs: 4, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1225, 0.4749, 1.6739, 8.1633}},
		{Scheme: Megatron, GPUs: 16, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1143, 0.4293, 1.8396, 8.7489}},
		{Scheme: Megatron, GPUs: 64, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1195, 0.5306, 1.5382, 8.3682}},
		{Scheme: Optimus, GPUs: 4, Q: 2, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1676, 0.5019, 1.4937, 5.9666}},
		{Scheme: Optimus, GPUs: 16, Q: 4, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.2099, 0.6159, 1.2109, 4.7642}},
		{Scheme: Optimus, GPUs: 64, Q: 8, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1329, 0.3986, 1.8815, 7.5245}},
		{Scheme: Tesseract, GPUs: 4, Q: 2, D: 1, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1666, 0.5014, 1.4970, 6.0024}},
		{Scheme: Tesseract, GPUs: 8, Q: 2, D: 2, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.0999, 0.3002, 2.4994, 10.0100}},
		{Scheme: Tesseract, GPUs: 16, Q: 4, D: 1, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1444, 0.4343, 1.7280, 6.9252}},
		{Scheme: Tesseract, GPUs: 32, Q: 4, D: 2, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1244, 0.3727, 2.0117, 8.0386}},
		{Scheme: Tesseract, GPUs: 64, Q: 4, D: 4, Batch: 16, Hidden: 3072, Heads: 64,
			Paper: Result{0.0869, 0.2636, 2.8531, 11.5075}},
		{Scheme: Tesseract, GPUs: 64, Q: 8, D: 1, Batch: 12, Hidden: 3072, Heads: 64,
			Paper: Result{0.1799, 0.5178, 1.4333, 5.5586}},
	}
}

// Table2Rows returns the thirteen weak-scaling configurations of Table 2:
// the per-GPU problem is pinned at [b/dq, n/q, h/n] = [24, 16, 192].
func Table2Rows() []Row {
	return []Row{
		{Scheme: Megatron, GPUs: 4, Batch: 60, Hidden: 2048, Heads: 32,
			Paper: Result{0.0793, 0.2613, 2.9360, 12.6103}},
		{Scheme: Megatron, GPUs: 16, Batch: 60, Hidden: 4096, Heads: 64,
			Paper: Result{0.2081, 0.5149, 1.3831, 4.8054}},
		{Scheme: Megatron, GPUs: 64, Batch: 30, Hidden: 8192, Heads: 128,
			Paper: Result{0.4638, 1.0963, 0.6410, 2.1561}},
		{Scheme: Optimus, GPUs: 4, Q: 2, Batch: 96, Hidden: 2048, Heads: 32,
			Paper: Result{0.0827, 0.2445, 3.0562, 12.0919}},
		{Scheme: Optimus, GPUs: 16, Q: 4, Batch: 192, Hidden: 4096, Heads: 64,
			Paper: Result{0.1829, 0.5458, 1.3723, 5.4675}},
		{Scheme: Optimus, GPUs: 64, Q: 8, Batch: 384, Hidden: 8192, Heads: 128,
			Paper: Result{0.1962, 0.5964, 1.2617, 5.0968}},
		{Scheme: Tesseract, GPUs: 1, Q: 1, D: 1, Batch: 48, Hidden: 1024, Heads: 16,
			Paper: Result{0.0603, 0.1669, 4.4014, 16.5837}},
		{Scheme: Tesseract, GPUs: 4, Q: 2, D: 1, Batch: 96, Hidden: 2048, Heads: 32,
			Paper: Result{0.0867, 0.2557, 2.9206, 11.5340}},
		{Scheme: Tesseract, GPUs: 8, Q: 2, D: 2, Batch: 192, Hidden: 2048, Heads: 32,
			Paper: Result{0.0864, 0.2552, 2.9274, 11.5741}},
		{Scheme: Tesseract, GPUs: 16, Q: 4, D: 1, Batch: 192, Hidden: 4096, Heads: 64,
			Paper: Result{0.1177, 0.3553, 2.1142, 8.4962}},
		{Scheme: Tesseract, GPUs: 32, Q: 4, D: 2, Batch: 384, Hidden: 4096, Heads: 64,
			Paper: Result{0.1173, 0.3521, 2.1304, 8.5251}},
		{Scheme: Tesseract, GPUs: 64, Q: 4, D: 4, Batch: 768, Hidden: 4096, Heads: 64,
			Paper: Result{0.1155, 0.3468, 2.1631, 8.6580}},
		{Scheme: Tesseract, GPUs: 64, Q: 8, D: 1, Batch: 384, Hidden: 8192, Heads: 128,
			Paper: Result{0.1799, 0.5178, 1.4333, 5.5586}},
	}
}
