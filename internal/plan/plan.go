package plan

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
)

// ErrNoFeasible is the sentinel wrapped by every "no feasible layout"
// failure: Search found no candidate inside the budgets, or Replan ran out
// of candidates its caller could instantiate. Callers branch on it with
// errors.Is (or errors.As on *NoFeasibleError for the replan details) to
// distinguish "there is nothing to run" — ride out, degrade, alert — from a
// malformed workload or topology.
var ErrNoFeasible = errors.New("no feasible layout")

// Workload describes the model a layout is being planned for: one stack of
// Transformer blocks of the kind every scheme in this repository implements
// (fused-QKV attention plus a 4h MLP, layer norms and residuals).
type Workload struct {
	// Batch is the global batch size (sequences per step).
	Batch int
	// SeqLen is the sequence length (default 512, as in internal/tables).
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

// WithDefaults fills the zero fields with the harness defaults (SeqLen 512,
// Layers 1) and validates the rest.
func (w Workload) WithDefaults() (Workload, error) {
	if w.SeqLen == 0 {
		w.SeqLen = 512
	}
	if w.Layers == 0 {
		w.Layers = 1
	}
	if w.Batch <= 0 || w.Hidden <= 0 || w.Heads <= 0 || w.SeqLen <= 0 || w.Layers <= 0 {
		return w, fmt.Errorf("plan: workload needs positive batch/hidden/heads/seqlen/layers, got %+v", w)
	}
	if w.Hidden%w.Heads != 0 {
		return w, fmt.Errorf("plan: hidden %d not divisible by heads %d", w.Hidden, w.Heads)
	}
	return w, nil
}

// Tokens returns batch·seqLen, the global activation row count.
func (w Workload) Tokens() int { return w.Batch * w.SeqLen }

// Grid is one processor layout. Ranks is the total processor count; Q and D
// describe the mesh for the 2-D/2.5-D families ([q, q] when D == 1 from an
// Optimus descriptor, [q, q, d] for Tesseract) and are zero for the 1-D
// Megatron family, whose layout is just [Ranks].
type Grid struct {
	Ranks, Q, D int
}

// Shape renders the layout the way the paper prints it: [p], [q,q] or
// [q,q,d].
func (g Grid) Shape() string {
	switch {
	case g.Q == 0:
		return fmt.Sprintf("[%d]", g.Ranks)
	case g.D <= 1:
		return fmt.Sprintf("[%d,%d]", g.Q, g.Q)
	default:
		return fmt.Sprintf("[%d,%d,%d]", g.Q, g.Q, g.D)
	}
}

// Topology is the machine the plans are priced against: the α–β cost model
// and the node size the replay's cluster is built with, and the search
// budgets.
type Topology struct {
	// Cost is the α–β machine model (zero fields take the Meluxina preset,
	// exactly as in dist.Config).
	Cost dist.CostModel
	// GPUsPerNode maps ranks to nodes (default 4, as on Meluxina).
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

// WithDefaults fills the zero fields (Meluxina cost model, 4 GPUs per node)
// and validates the rest.
func (t Topology) WithDefaults() (Topology, error) {
	if err := t.Cost.Check(); err != nil {
		return t, fmt.Errorf("plan: %w", err)
	}
	t.Cost = t.Cost.WithDefaults()
	if t.GPUsPerNode == 0 {
		t.GPUsPerNode = 4
	}
	if t.GPUsPerNode < 1 {
		return t, fmt.Errorf("plan: GPUsPerNode %d must be positive", t.GPUsPerNode)
	}
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

// Algo describes one algorithm family to the planner: the name its runtime
// constructor is registered under (internal/parallel) plus the one thing
// only the family can state, which layouts it accepts. What a layout costs
// and what it holds are not among them: the planner replays the family's own
// layers (see Price). Grids must be pure — the planner calls it per search.
type Algo struct {
	// Family names the scheme ("tesseract", "megatron", "optimus").
	Family string
	// Grids enumerates the family's feasible layouts for a workload
	// within a rank budget (divisibility constraints included).
	Grids func(w Workload, rankBudget int) []Grid
}

// Plan is one ranked candidate: a family, a grid, and its score.
type Plan struct {
	// Family is the Algo.Family that produced the candidate.
	Family string
	// Grid is the processor layout.
	Grid Grid
	// Predicted is the replayed score the ranking sorted by.
	Predicted Breakdown
}

// String renders "family [shape]".
func (p Plan) String() string { return fmt.Sprintf("%s %s", p.Family, p.Grid.Shape()) }

// Search enumerates every feasible (family, grid) candidate within the
// topology's budgets, prices each by replay, and returns the full list
// ranked by predicted step time (ties: fewer ranks first, then less
// memory). Candidates whose replay held more than the memory budget are
// dropped; if every candidate is dropped, Search returns an error naming the
// tightest one so the caller can see how far the budget misses.
func Search(w Workload, t Topology, algos []Algo) ([]Plan, error) {
	return search(w, t, algos, "", nil, func(w Workload, t Topology, c Plan) (Plan, float64, int64, error) {
		var err error
		c.Predicted, err = Price(w, c.Layout(), t)
		return c, c.Predicted.Step(), c.Predicted.MemoryBytes, err
	})
}

// search is the one candidate walk behind Search and SearchServing: defaults
// and validation, every family's grids, the admit filter (nil admits all),
// the exact-rank filter, score, the memory filter on what the score's replay
// held, the no-feasible error — what names the search in it — and the
// ranking. A candidate is a Plan with nothing predicted yet; score receives
// the defaulted workload and topology and returns the candidate's ranked
// value with its key (ascending; ties prefer fewer ranks, then less memory)
// and the per-rank bytes the budget is checked against.
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
	type ranked struct {
		p     P
		key   float64
		ranks int
		mem   int64
	}
	var out []ranked
	var tightest Plan // the smallest candidate the budget dropped
	for _, a := range algos {
		for _, g := range a.Grids(w, t.RankBudget) {
			c := Plan{Family: a.Family, Grid: g}
			if admit != nil && !admit(w, c) {
				continue
			}
			if t.ExactRanks && g.Ranks != t.RankBudget {
				continue
			}
			p, key, mem, err := score(w, t, c)
			if err != nil {
				return nil, fmt.Errorf("plan: pricing %s: %w", c, err)
			}
			if t.MemoryBudget > 0 && mem > t.MemoryBudget {
				if tightest.Family == "" || mem < tightest.Predicted.MemoryBytes {
					tightest = c
					tightest.Predicted.MemoryBytes = mem
				}
				continue
			}
			out = append(out, ranked{p, key, g.Ranks, mem})
		}
	}
	if len(out) == 0 {
		if tightest.Family != "" {
			return nil, fmt.Errorf("plan: %w within %s per rank (smallest candidate %s needs %s)",
				ErrNoFeasible, FormatBytes(t.MemoryBudget), tightest, FormatBytes(tightest.Predicted.MemoryBytes))
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
