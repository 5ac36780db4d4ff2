package tables

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/plan"
)

// Options controls how the harness executes a row.
type Options struct {
	// SeqLen is the Transformer sequence length (default DefaultSeqLen).
	SeqLen int
	// Layers is the number of Transformer layers timed (default 1; the
	// paper reports per-layer-stack times whose absolute scale we do not
	// reproduce, only the relative shape).
	Layers int
	// GPUsPerNode overrides the node size (default 4, as on Meluxina).
	GPUsPerNode int
	// NoRecompute disables activation checkpointing. By default the
	// backward pass re-runs the forward first (recompute), which is how
	// memory-constrained runs at the paper's sizes execute and which
	// matches the paper's uniform backward ≈ 3× forward ratio across all
	// twelve Table 1 rows.
	NoRecompute bool
}

// withDefaults fills the zero fields and rejects what no run can honour — a
// negative size — before any cluster is built. Zero always means "default".
// Every row runs on the Meluxina cost model (dist.MeluxinaModel).
func (o Options) withDefaults() (Options, error) {
	if o.SeqLen < 0 || o.Layers < 0 || o.GPUsPerNode < 0 {
		return o, fmt.Errorf("tables: sequence length %d, layers %d and GPUs per node %d must not be negative (zero selects the default)",
			o.SeqLen, o.Layers, o.GPUsPerNode)
	}
	if o.SeqLen == 0 {
		o.SeqLen = DefaultSeqLen
	}
	if o.Layers == 0 {
		o.Layers = 1
	}
	if o.GPUsPerNode == 0 {
		o.GPUsPerNode = 4
	}
	return o, nil
}

// replayEach runs the n independent replays run(0) … run(n-1), at most
// runtime.GOMAXPROCS(0) of them at a time, and returns their results in index
// order. Every replay builds a cluster of its own, so concurrent ones share
// nothing and each result is what a loop over run would have produced. The
// calling goroutine is one of the runners and waits for the others, so no
// goroutine outlives the call.
//
// Indices are handed out in order and a failure only stops the hand-out, so
// every replay below a failed one still runs to its end: the error returned
// is that of the lowest failing index, as a sequential loop's would be.
func replayEach[T any](n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	runner := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if out[i], errs[i] = run(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), n); k > 1; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner()
		}()
	}
	runner()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
	b, err := timeStep(l, row, opts)
	if err != nil {
		return Result{}, err
	}
	return newResult(b.Forward, b.Backward), nil
}

// timeStep prices one training step of the row's model (its Batch, Hidden
// and Heads) under a layout with plan.Price.
func timeStep(l parallel.Layout, row Row, opts Options) (plan.Breakdown, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return plan.Breakdown{}, err
	}
	w := plan.Workload{Batch: row.Batch, Hidden: row.Hidden, Heads: row.Heads,
		SeqLen: opts.SeqLen, Layers: opts.Layers, NoRecompute: opts.NoRecompute}
	return plan.Price(w, l, plan.Topology{GPUsPerNode: opts.GPUsPerNode})
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
	l, err := l.Normalize()
	if err != nil {
		return l, err
	}
	if l.Ranks != row.GPUs {
		return l, fmt.Errorf("tables: shape %s has %d processors, row says %d", row.Shape(), l.Ranks, row.GPUs)
	}
	return l, nil
}
