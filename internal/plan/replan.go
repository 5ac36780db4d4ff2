package plan

import (
	"errors"
	"fmt"
)

// NoFeasibleError is the structured outcome of a Replan that found nothing
// to run: the surviving budget cannot satisfy the memory/divisibility
// constraints, or every candidate was rejected by the caller's
// instantiation filter. It wraps ErrNoFeasible (so errors.Is works) and
// records the budget it failed under, so elastic drivers can decide to
// ride out the degradation instead of treating the miss as a crash.
type NoFeasibleError struct {
	// Surviving is the rank budget the replan searched under.
	Surviving int
	// Filtered reports whether candidates existed but the instantiation
	// filter rejected them all, as opposed to the search itself coming up
	// empty.
	Filtered bool
	// Err is the underlying cause; it wraps ErrNoFeasible.
	Err error
}

func (e *NoFeasibleError) Error() string {
	return fmt.Sprintf("plan: replan onto %d ranks: %v", e.Surviving, e.Err)
}

// Unwrap exposes the cause — and through it ErrNoFeasible — to errors.Is.
func (e *NoFeasibleError) Unwrap() error { return e.Err }

// Replan re-runs the layout search after a rank loss or demotion: the same
// workload and machine, but at most surviving ranks. It is the planner half
// of the elastic loop — dist reports which ranks died (or the monitor which
// are sick), Replan picks the best layout the survivors can still run, and
// parallel.Reshard moves the checkpoint onto it.
//
// ExactRanks is always relaxed (a shrunk fleet rarely matches a paper-exact
// processor count), and the optional ok filter lets the caller reject
// layouts it cannot instantiate — divisibility of the batch or model widths,
// a family it cannot build — in which case the next-best plan is tried. The
// returned plan is the best surviving candidate by predicted step time.
//
// When no candidate survives, the error is a *NoFeasibleError wrapping
// ErrNoFeasible; any other error (malformed workload, bad topology) is
// returned as-is, so callers can tell "nothing fits" from "you asked
// wrong".
func Replan(w Workload, t Topology, algos []Algo, surviving int, ok func(Plan) bool) (Plan, error) {
	if surviving < 1 {
		return Plan{}, fmt.Errorf("plan: cannot replan onto %d surviving ranks", surviving)
	}
	t.RankBudget = surviving
	t.ExactRanks = false
	plans, err := Search(w, t, algos)
	if err != nil {
		if errors.Is(err, ErrNoFeasible) {
			return Plan{}, &NoFeasibleError{Surviving: surviving, Err: err}
		}
		return Plan{}, fmt.Errorf("plan: replan onto %d ranks: %w", surviving, err)
	}
	for _, p := range plans {
		if ok == nil || ok(p) {
			return p, nil
		}
	}
	return Plan{}, &NoFeasibleError{
		Surviving: surviving,
		Filtered:  true,
		Err:       fmt.Errorf("%w: all %d candidates rejected by the instantiation filter", ErrNoFeasible, len(plans)),
	}
}

// DistributedBudget is the per-rank memory budget that states "the model
// must stay distributed": one byte under the smallest footprint any of the
// families has on a single rank, so a Replan under it cannot collapse onto
// one survivor — the usual reason elasticity matters in the first place.
func DistributedBudget(w Workload, algos []Algo) (int64, error) {
	plans, err := Search(w, Topology{RankBudget: 1}, algos)
	if err != nil {
		return 0, err
	}
	smallest := plans[0].Predicted.MemoryBytes
	for _, p := range plans[1:] {
		smallest = min(smallest, p.Predicted.MemoryBytes)
	}
	return smallest - 1, nil
}
