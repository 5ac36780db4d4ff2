package tables

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Options controls how the harness executes a row.
type Options struct {
	// SeqLen is the Transformer sequence length (default DefaultSeqLen).
	SeqLen int
	// Layers is the number of Transformer layers timed (default 1; the
	// paper reports per-layer-stack times whose absolute scale we do not
	// reproduce, only the relative shape).
	Layers int
	// Cost overrides the machine model (default dist.MeluxinaModel).
	Cost dist.CostModel
	// GPUsPerNode overrides the node size (default 4, as on Meluxina).
	GPUsPerNode int
	// Real executes with real random matrices instead of phantoms. Only
	// sensible for small hidden sizes (tests use it to validate the
	// phantom path).
	Real bool
	// NoRecompute disables activation checkpointing. By default the
	// backward pass re-runs the forward first (recompute), which is how
	// memory-constrained runs at the paper's sizes execute and which
	// matches the paper's uniform backward ≈ 3× forward ratio across all
	// twelve Table 1 rows.
	NoRecompute bool
	// Seed seeds parameter/data generation in Real mode.
	Seed uint64
}

// withDefaults fills the zero fields and rejects what no run can honour — a
// negative size or a cost model dist.New would panic on — before any cluster
// is built. Zero always means "default".
func (o Options) withDefaults() (Options, error) {
	if o.SeqLen < 0 || o.Layers < 0 || o.GPUsPerNode < 0 {
		return o, fmt.Errorf("tables: sequence length %d, layers %d and GPUs per node %d must not be negative (zero selects the default)",
			o.SeqLen, o.Layers, o.GPUsPerNode)
	}
	if err := o.Cost.Check(); err != nil {
		return o, fmt.Errorf("tables: %w", err)
	}
	if o.SeqLen == 0 {
		o.SeqLen = DefaultSeqLen
	}
	if o.Layers == 0 {
		o.Layers = 1
	}
	if o.Cost.FLOPS == 0 {
		o.Cost = dist.MeluxinaModel()
	}
	if o.GPUsPerNode == 0 {
		o.GPUsPerNode = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// Check reports what withDefaults would reject, so a front end that runs
// several studies from one Options can refuse it before the first prints.
func (o Options) Check() error {
	_, err := o.withDefaults()
	return err
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

// RunRow executes one table row on a fresh simulated cluster and returns the
// measured columns. The forward pass and backward pass are timed separately
// (parallel.Replay.Step resets the simulated clocks in between), exactly
// mirroring the paper's forward-time/backward-time split.
func RunRow(row Row, opts Options) (Result, error) {
	l, err := LayoutForRow(row)
	if err != nil {
		return Result{}, err
	}
	st, err := timeStep(l, row, opts)
	if err != nil {
		return Result{}, err
	}
	return newResult(row.Batch, st.Forward, st.Backward), nil
}

// timeStep times one training step of the row's model (its Batch, Hidden and
// Heads) under a layout.
func timeStep(l parallel.Layout, row Row, opts Options) (parallel.StepClocks, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return parallel.StepClocks{}, err
	}
	rp, err := newReplay(l, row, opts)
	if err != nil {
		return parallel.StepClocks{}, err
	}
	return rp.Step(!opts.NoRecompute)
}

// newReplay builds the layout's cluster and, untimed, the row's layer stack
// and inputs on every rank.
func newReplay(l parallel.Layout, row Row, opts Options) (*parallel.Replay, error) {
	c := dist.New(dist.Config{
		WorldSize:   l.Ranks,
		GPUsPerNode: opts.GPUsPerNode,
		Cost:        opts.Cost,
	})
	return parallel.NewReplay(c, func(w *dist.Worker) (*parallel.Stack, error) {
		return newStack(l, row, opts, w)
	})
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

// newStack builds one rank's layer stack for a row: phantom blocks and
// inputs by default, real random ones under Options.Real.
func newStack(l parallel.Layout, row Row, opts Options, w *dist.Worker) (*parallel.Stack, error) {
	f, err := parallel.New(w, l)
	if err != nil {
		return nil, err
	}
	if !opts.Real {
		return parallel.NewPhantomStack(f, row.Batch, opts.SeqLen, row.Hidden, row.Heads, opts.Layers), nil
	}
	s := &parallel.Stack{Family: f}
	for i := 0; i < opts.Layers; i++ {
		s.Blocks = append(s.Blocks, f.NewBlock(row.Hidden, row.Heads, opts.SeqLen, tensor.NewRNG(opts.Seed+uint64(i))))
	}
	// Replicated activations (Megatron) must be identical on every rank;
	// split activations get independent per-rank blocks.
	sl := f.Slice(row.Batch*opts.SeqLen, row.Hidden)
	seed := opts.Seed
	if sl.Rows != row.Batch*opts.SeqLen || sl.Cols != row.Hidden {
		seed += uint64(w.Rank())
	}
	s.X = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+100))
	s.DY = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+200))
	return s, nil
}
