package tables

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/plan"
)

// Options controls how the harness executes a row. A zero field leaves the
// priced workload's own value, which plan defaults (plan.DefaultSeqLen,
// plan.DefaultLayers).
type Options struct {
	// SeqLen is the Transformer sequence length.
	SeqLen int
	// Layers is the number of Transformer layers timed (the paper reports
	// per-layer-stack times whose absolute scale we do not reproduce, only
	// the relative shape).
	Layers int
	// NoRecompute disables activation checkpointing. By default the
	// backward pass re-runs the forward first (recompute), which is how
	// memory-constrained runs at the paper's sizes execute and which
	// matches the paper's uniform backward ≈ 3× forward ratio across all
	// twelve Table 1 rows.
	NoRecompute bool
}

// check rejects what no run can honour — a negative size — before any
// cluster is built.
func (o Options) check() error {
	if o.SeqLen < 0 || o.Layers < 0 {
		return fmt.Errorf("tables: sequence length %d and layers %d must not be negative (zero selects the default)",
			o.SeqLen, o.Layers)
	}
	return nil
}

// apply returns w priced under the options: a set SeqLen or Layers replaces
// w's, and NoRecompute switches recompute off.
func (o Options) apply(w plan.Workload) plan.Workload {
	if o.SeqLen != 0 {
		w.SeqLen = o.SeqLen
	}
	if o.Layers != 0 {
		w.Layers = o.Layers
	}
	w.NoRecompute = w.NoRecompute || o.NoRecompute
	return w
}

// RunRow times one table row and returns the measured columns, the forward
// and backward passes timed separately as in the paper. The row is priced as
// the planner prices a candidate (plan.Price): on rank 0 alone where
// placement treats every rank alike, which the SPMD schedules make exact to
// the bit, and on the full cluster otherwise.
func RunRow(row Row, opts Options) (Result, error) {
	l, err := LayoutForRow(row)
	if err != nil {
		return Result{}, err
	}
	if err := opts.check(); err != nil {
		return Result{}, err
	}
	b, err := plan.Price(opts.apply(row.workload()), l, plan.Topology{})
	if err != nil {
		return Result{}, err
	}
	return newResult(b.Forward, b.Backward), nil
}

// LayoutForRow converts a table row into the runtime layout its scheme
// registers with the parallel package, validating the processor count.
func LayoutForRow(row Row) (parallel.Layout, error) {
	var l parallel.Layout
	switch row.Scheme {
	case Megatron:
		l = parallel.Layout{Family: "megatron", Ranks: row.GPUs}
	case SeqPar:
		l = parallel.Layout{Family: "seqpar", Ranks: row.GPUs}
	case Optimus:
		l = parallel.Layout{Family: "optimus", Q: row.Q}
	case Tesseract:
		l = parallel.Layout{Family: "tesseract", Q: row.Q, D: row.D}
	default:
		return l, fmt.Errorf("tables: unknown scheme %q", row.Scheme)
	}
	l, err := parallel.Validate(l)
	if err != nil {
		return l, err
	}
	if l.Ranks != row.GPUs {
		return l, fmt.Errorf("tables: shape %s has %d processors, row says %d", row.Shape(), l.Ranks, row.GPUs)
	}
	return l, nil
}
