package plan_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/plan"
)

// tiny is a model small enough to search under many budgets.
var tiny = plan.Workload{Batch: 8, SeqLen: 4, Hidden: 16, Heads: 4, Layers: 2}

func allAlgos() []plan.Algo { return append(algos(), "seqpar") }

// TestServingSearchAndReplanStayWithinBudget: with the budget set at each
// candidate's own footprint in turn, SearchServing returns the unbudgeted
// ranking minus what does not fit — an over-budget candidate is dropped, not
// ranked — and Replan's pick onto 7 ranks fits. A budget that admits no
// training candidate on 7 ranks or fewer (tesseract [2,2,2]'s, the smallest
// footprint of the 8-rank search) is refused with a NoFeasibleError rather
// than left.
func TestServingSearchAndReplanStayWithinBudget(t *testing.T) {
	topo := plan.Topology{RankBudget: 8}
	serving, err := plan.SearchServing(tiny, topo, allAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range serving {
		topo.MemoryBudget = at.Predicted.MemoryBytes
		got, err := plan.SearchServing(tiny, topo, allAlgos(), plan.ServingObjective{})
		if err != nil {
			t.Fatal(err)
		}
		var fit []plan.ServingPlan
		for _, p := range serving {
			if p.Predicted.MemoryBytes <= topo.MemoryBudget {
				fit = append(fit, p)
			}
		}
		if !reflect.DeepEqual(got, fit) {
			t.Errorf("serving under %d B:\n%v\nwant\n%v", topo.MemoryBudget, got, fit)
		}
	}

	training, err := plan.Search(tiny, plan.Topology{RankBudget: 8}, allAlgos())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range training {
		topo.MemoryBudget = at.Predicted.MemoryBytes
		admits := false
		for _, c := range training {
			admits = admits || c.Grid.Ranks <= 7 && c.Predicted.MemoryBytes <= topo.MemoryBudget
		}
		p, err := plan.Replan(tiny, topo, allAlgos(), 7, nil)
		if !admits {
			var nf *plan.NoFeasibleError
			if !errors.As(err, &nf) {
				t.Errorf("replan under %s's %d B, which no layout on 7 ranks fits: %v, %v", at, topo.MemoryBudget, p, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("replan under %s's %d B: %v", at, topo.MemoryBudget, err)
		}
		if p.Predicted.MemoryBytes > topo.MemoryBudget || p.Grid.Ranks > 7 {
			t.Errorf("replan under %d B onto 7 ranks picked %s (%d B)", topo.MemoryBudget, p, p.Predicted.MemoryBytes)
		}
	}
}

// TestServingFootprintBelowTraining: a served layout is charged its weights
// once and no gradients, so every candidate serves in strictly less than it
// trains in.
func TestServingFootprintBelowTraining(t *testing.T) {
	topo := plan.Topology{RankBudget: 8}
	serving, err := plan.SearchServing(tiny, topo, allAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range serving {
		train, err := plan.Price(tiny, s.Grid, topo)
		if err != nil {
			t.Fatal(err)
		}
		if s.Predicted.MemoryBytes <= 0 || s.Predicted.MemoryBytes >= train.MemoryBytes {
			t.Errorf("%s serves in %d B and trains in %d B", s, s.Predicted.MemoryBytes, train.MemoryBytes)
		}
	}
}

// TestDistributedBudgetKeepsReplansOffOneRank: under the budget no
// single-rank layout of any searched family fits, every multi-rank one of
// this model does, and the budget follows the families searched — without
// seqpar, whose single rank holds least, it is megatron's.
func TestDistributedBudgetKeepsReplansOffOneRank(t *testing.T) {
	budget, err := plan.DistributedBudget(tiny, allAlgos())
	if err != nil {
		t.Fatal(err)
	}
	all, err := plan.Search(tiny, plan.Topology{RankBudget: 8}, allAlgos())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range all {
		if fits := p.Predicted.MemoryBytes <= budget; fits != (p.Grid.Ranks > 1) {
			t.Errorf("%s holds %d B under a stay-distributed budget of %d B", p, p.Predicted.MemoryBytes, budget)
		}
	}
	p, err := plan.Replan(tiny, plan.Topology{MemoryBudget: budget}, allAlgos(), 1, nil)
	if err == nil {
		t.Fatalf("one survivor must not be replanned onto, got %s", p)
	}
	fewer, err := plan.DistributedBudget(tiny, algos())
	if err != nil {
		t.Fatal(err)
	}
	if fewer <= budget {
		t.Errorf("budget without seqpar %d B, with it %d B: seqpar [1] should be the smallest single rank", fewer, budget)
	}
}
