package plan

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// ErrNoFeasible is the sentinel wrapped by every "no feasible layout"
// failure: Search found no candidate inside the budgets, or Replan ran out
// of candidates its caller could instantiate. Callers branch on it with
// errors.Is (or errors.As on *NoFeasibleError for the replan details) to
// distinguish "there is nothing to run" — ride out, degrade, alert — from a
// malformed workload or topology.
var ErrNoFeasible = errors.New("no feasible layout")

// DefaultSeqLen and DefaultLayers are what zero SeqLen and Layers select.
// The paper prints no sequence length; 512 is the usual Megatron-LM setting
// and splits every row of both its tables.
const (
	DefaultSeqLen = 512
	DefaultLayers = 1
)

// Workload describes the model a layout is being planned for: one stack of
// Transformer blocks of the kind every scheme in this repository implements
// (fused-QKV attention plus a 4h MLP, layer norms and residuals).
type Workload struct {
	// Batch is the global batch size (sequences per step).
	Batch int
	// SeqLen is the sequence length (default DefaultSeqLen).
	SeqLen int
	// Hidden is the model width h; the MLP expands to 4h.
	Hidden int
	// Heads is the attention head count.
	Heads int
	// Layers is the number of Transformer blocks timed (default 1).
	Layers int
	// NoRecompute disables activation checkpointing. By default the
	// backward pass re-runs the forward first, matching the
	// memory-constrained execution internal/tables times.
	NoRecompute bool
}

// WithDefaults fills the zero fields with DefaultSeqLen and DefaultLayers
// and validates the rest.
func (w Workload) WithDefaults() (Workload, error) {
	if w.SeqLen == 0 {
		w.SeqLen = DefaultSeqLen
	}
	if w.Layers == 0 {
		w.Layers = DefaultLayers
	}
	if w.Batch <= 0 || w.Hidden <= 0 || w.Heads <= 0 || w.SeqLen <= 0 || w.Layers <= 0 {
		return w, fmt.Errorf("plan: workload needs positive batch/hidden/heads/seqlen/layers, got %+v", w)
	}
	if w.Hidden%w.Heads != 0 {
		return w, fmt.Errorf("plan: hidden %d not divisible by heads %d", w.Hidden, w.Heads)
	}
	return w, nil
}

// Grid is a candidate's processor layout: the runtime's own parallel.Layout
// (Family, Q, D, Ranks), which parallel.New builds as it is. The name
// survives for callers that read a plan's p.Grid.Ranks, Q and D.
type Grid = parallel.Layout

// Topology is the machine the plans are priced against — the α–β cost model
// and the node size the replay's cluster is built with, the two fields of
// Machine — and the search budgets.
type Topology struct {
	// Cost is the α–β machine model (Machine().Cost).
	Cost dist.CostModel
	// GPUsPerNode is the node size (Machine().GPUsPerNode).
	GPUsPerNode int
	// RankBudget is the maximum processor count a grid may use.
	RankBudget int
	// ExactRanks restricts the search to grids that use exactly
	// RankBudget processors — the paper's fixed-p comparisons — instead
	// of letting a smaller layout win the ranking.
	ExactRanks bool
	// MemoryBudget is the per-rank memory limit in bytes; zero disables
	// the memory filter.
	MemoryBudget int64
}

// Machine returns the machine the plans are priced on: zero fields take the
// Meluxina defaults, exactly as in dist.Config.
func (t Topology) Machine() dist.Machine {
	return dist.Machine{Cost: t.Cost, GPUsPerNode: t.GPUsPerNode}
}

// WithDefaults fills the machine's zero fields (dist.Machine.WithDefaults)
// and validates the rest; a machine that fails dist.Machine.Check is an
// error here, not a panic.
func (t Topology) WithDefaults() (Topology, error) {
	m := t.Machine()
	if err := m.Check(); err != nil {
		return t, fmt.Errorf("plan: %w", err)
	}
	m = m.WithDefaults()
	t.Cost, t.GPUsPerNode = m.Cost, m.GPUsPerNode
	if t.RankBudget < 1 {
		return t, fmt.Errorf("plan: rank budget %d must be positive", t.RankBudget)
	}
	if t.MemoryBudget < 0 {
		return t, fmt.Errorf("plan: memory budget %d must be non-negative", t.MemoryBudget)
	}
	return t, nil
}

// Breakdown is the score of one candidate: the simulated seconds its forward
// and backward phases take (the backward includes the recompute forward
// unless the workload disables it) as replayed by Price, with the
// comm/compute split kept for diagnostics, plus the bytes the replay's
// heaviest rank held.
type Breakdown struct {
	// Forward and Backward are predicted seconds per phase for the whole
	// layer stack, comparable to tables.Result.
	Forward, Backward float64
	// ComputeSeconds is the arithmetic-only part of Forward+Backward: the
	// replay's representative rank's busy seconds.
	ComputeSeconds float64
	// CommSeconds is the rest of Forward+Backward — the communication the
	// double-buffered schedules could not overlap with compute.
	CommSeconds float64
	// MemoryBytes is what the replay's heaviest rank held over the step:
	// its parameter shards four times over (value, gradient, Adam's two
	// moments), the input and output-gradient blocks, and the workspace
	// high-water between the step boundaries (parallel.StepClocks).
	MemoryBytes int64
}

// Step returns the predicted seconds per training step (forward plus
// backward).
func (b Breakdown) Step() float64 { return b.Forward + b.Backward }

// Algo is one algorithm family as the planner sees it: the name its
// parallel.Spec is registered under. Its candidates are the
// parallel.Layouts within the rank budget that parallel.Fits the workload;
// what each costs and holds is a replay of the family's layers (Price).
type Algo string

// Plan is one ranked candidate: a layout and its score.
type Plan struct {
	// Grid is the candidate layout; its Family is the Algo that listed it.
	Grid
	// Predicted is the replayed score the ranking sorted by.
	Predicted Breakdown
}

// Search lists every family's layouts within the topology's budgets that
// split the workload, prices each by replay, and returns them ranked by
// predicted step time (ties: fewer ranks first, then less memory).
// Candidates whose replay held more than the memory budget are dropped; if
// every candidate is dropped, Search returns an error naming the tightest
// one so the caller can see how far the budget misses.
func Search(w Workload, t Topology, algos []Algo) ([]Plan, error) {
	return search(w, t, algos, "", nil, func(w Workload, t Topology, c Plan) (Plan, float64, int64, error) {
		var err error
		c.Predicted, err = Price(w, c.Grid, t)
		return c, c.Predicted.Step(), c.Predicted.MemoryBytes, err
	})
}

// search is the one candidate walk behind Search and SearchServing: defaults
// and validation, every family's layouts, the exact-rank, fit and admit
// filters (nil admits all), score, the memory filter on what the score's replay
// held, the no-feasible error — what names the search in it — and the
// ranking. A candidate is a Plan with nothing predicted yet; score receives
// the defaulted workload and topology and returns the candidate's ranked
// value with its key (ascending; ties prefer fewer ranks, then less memory)
// and the per-rank bytes the budget is checked against.
//
// Every candidate is an independent replay on a cluster of its own, so all
// of them are scored side by side (parallel.ReplayEach) before the memory
// filter, the tightest-candidate error and the ranking walk the scores in
// candidate order: the list, its order and the error — the lowest failing
// candidate's — are what one score after another gives.
func search[P any](w Workload, t Topology, algos []Algo, what string, admit func(Workload, Plan) bool,
	score func(Workload, Topology, Plan) (P, float64, int64, error)) ([]P, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return nil, err
	}
	t, err = t.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(algos) == 0 {
		return nil, fmt.Errorf("plan: no algorithm families to search")
	}
	var cands []Plan
	for _, a := range algos {
		ls, err := parallel.Layouts(string(a), t.RankBudget)
		if err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
		for l := range ls {
			c := Plan{Grid: l}
			if (t.ExactRanks && l.Ranks != t.RankBudget) || !parallel.Fits(l, w.Batch, w.SeqLen, w.Hidden, w.Heads) ||
				(admit != nil && !admit(w, c)) {
				continue
			}
			cands = append(cands, c)
		}
	}
	type ranked struct {
		p     P
		key   float64
		ranks int
		mem   int64
	}
	scores, err := parallel.ReplayEach(len(cands), func(i int) (ranked, error) {
		c := cands[i]
		p, key, mem, err := score(w, t, c)
		if err != nil {
			return ranked{}, fmt.Errorf("plan: pricing %s: %w", c, err)
		}
		return ranked{p, key, c.Ranks, mem}, nil
	})
	if err != nil {
		return nil, err
	}
	out := scores[:0]
	var tightest Plan // the smallest candidate the budget dropped
	for i, r := range scores {
		if t.MemoryBudget > 0 && r.mem > t.MemoryBudget {
			if tightest.Family == "" || r.mem < tightest.Predicted.MemoryBytes {
				tightest = cands[i]
				tightest.Predicted.MemoryBytes = r.mem
			}
			continue
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		if tightest.Family != "" {
			need := tightest.Predicted.MemoryBytes
			return nil, fmt.Errorf("plan: %w within %s per rank (smallest candidate %s needs %s, %s over)",
				ErrNoFeasible, FormatBytes(t.MemoryBudget), tightest, FormatBytes(need), FormatBytes(need-t.MemoryBudget))
		}
		constraint := "within"
		if t.ExactRanks {
			constraint = "using exactly"
		}
		return nil, fmt.Errorf("plan: %w %s %d ranks%s (check divisibility of batch/hidden/heads)", ErrNoFeasible, constraint, t.RankBudget, what)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].key != out[j].key {
			return out[i].key < out[j].key
		}
		if out[i].ranks != out[j].ranks {
			return out[i].ranks < out[j].ranks
		}
		return out[i].mem < out[j].mem
	})
	plans := make([]P, len(out))
	for i, r := range out {
		plans[i] = r.p
	}
	return plans, nil
}
