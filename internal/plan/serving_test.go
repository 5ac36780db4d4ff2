package plan_test

import (
	"errors"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/plan"
)

func servingAlgos() []plan.Algo {
	return []plan.Algo{"tesseract", "optimus", "megatron"}
}

var servingW = plan.Workload{Batch: 16, Hidden: 3072, Heads: 64}

func TestSearchServingRanksSorted(t *testing.T) {
	plans, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 64}, servingAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(plans, func(i, j int) bool { return plans[i].Score < plans[j].Score }) {
		t.Fatal("serving plans not sorted by score")
	}
	fams := map[string]bool{}
	for _, p := range plans {
		fams[p.Family] = true
		pr := p.Predicted
		if pr.MinBatch < 1 || pr.MinBatch > servingW.Batch {
			t.Fatalf("%s: MinBatch %d outside [1, %d]", p, pr.MinBatch, servingW.Batch)
		}
		if pr.MinLatency <= 0 || pr.FullLatency <= 0 || pr.Throughput <= 0 {
			t.Fatalf("%s: non-positive prediction %+v", p, pr)
		}
		if pr.MinLatency > pr.FullLatency+1e-12 {
			t.Fatalf("%s: min-batch forward %.6g slower than full-batch %.6g", p, pr.MinLatency, pr.FullLatency)
		}
		want := plan.ServingObjective{LatencyWeight: 1, ThroughputWeight: 1}
		if got := want.LatencyWeight*pr.MinLatency + want.ThroughputWeight*pr.FullLatency/float64(servingW.Batch); math.Abs(got-p.Score) > 1e-12 {
			t.Fatalf("%s: score %.9g does not match its definition %.9g", p, p.Score, got)
		}
	}
	for _, f := range []string{"tesseract", "optimus", "megatron"} {
		if !fams[f] {
			t.Fatalf("family %s missing from the serving ranking", f)
		}
	}
}

func TestSearchServingExactRanks(t *testing.T) {
	plans, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 64, ExactRanks: true}, servingAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Grid.Ranks != 64 {
			t.Fatalf("%s uses %d ranks under ExactRanks 64", p, p.Grid.Ranks)
		}
	}
}

// TestSearchServingSkipsOversizedGrids: a grid whose row-shard unit exceeds
// the workload batch cannot run even one padded request per forward and must
// be filtered, not priced.
func TestSearchServingSkipsOversizedGrids(t *testing.T) {
	small := servingW
	small.Batch = 4
	plans, err := plan.SearchServing(small, plan.Topology{RankBudget: 64}, servingAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Predicted.MinBatch > small.Batch {
			t.Fatalf("%s: min batch %d exceeds workload batch %d", p, p.Predicted.MinBatch, small.Batch)
		}
	}
}

// TestSearchServingMinBatchIsTheLayoutsRowShards: the interactive batch a
// candidate is priced at is the one the runtime pads a lone request to —
// q·d on a mesh, p for sequence parallelism (whole sequences per rank), 1
// for Megatron — so a sequence length no rank count divides (5) is no
// obstacle: the replay never has to split a sequence.
func TestSearchServingMinBatchIsTheLayoutsRowShards(t *testing.T) {
	w := plan.Workload{Batch: 6, SeqLen: 5, Hidden: 36, Heads: 6}
	plans, err := plan.SearchServing(w, plan.Topology{RankBudget: 8}, append(servingAlgos(), "seqpar"), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]bool{}
	for _, p := range plans {
		fams[p.Family] = true
		if want := p.Grid.RowShards(); p.Predicted.MinBatch != want {
			t.Errorf("%s: priced at min batch %d, the layout pads to %d", p, p.Predicted.MinBatch, want)
		}
	}
	if !fams["seqpar"] || !fams["tesseract"] || !fams["megatron"] {
		t.Fatalf("ranking covers %v, want seqpar, tesseract and megatron in it", fams)
	}
}

// TestSearchServingObjectiveWeightsChangeRanking: an all-latency objective
// must put the lowest-min-latency candidate first; an all-throughput
// objective the lowest per-request full-batch cost.
func TestSearchServingObjectiveWeights(t *testing.T) {
	topo := plan.Topology{RankBudget: 64}
	lat, err := plan.SearchServing(servingW, topo, servingAlgos(), plan.ServingObjective{LatencyWeight: 1, ThroughputWeight: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	thr, err := plan.SearchServing(servingW, topo, servingAlgos(), plan.ServingObjective{LatencyWeight: 1e-12, ThroughputWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lat {
		if p.Predicted.MinLatency < lat[0].Predicted.MinLatency {
			t.Fatalf("latency objective: %s beats winner %s on min latency", p, lat[0])
		}
	}
	for _, p := range thr {
		if p.Predicted.FullLatency < thr[0].Predicted.FullLatency {
			t.Fatalf("throughput objective: %s beats winner %s on full-batch latency", p, thr[0])
		}
	}
}

func TestSearchServingErrors(t *testing.T) {
	if _, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 64}, nil, plan.ServingObjective{}); err == nil {
		t.Fatal("no algos must error")
	}
	if _, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 64}, servingAlgos(), plan.ServingObjective{LatencyWeight: -1}); err == nil {
		t.Fatal("negative weight must error")
	}
	// A rank budget no grid hits exactly: ErrNoFeasible.
	_, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 7, ExactRanks: true}, servingAlgos(), plan.ServingObjective{})
	if !errors.Is(err, plan.ErrNoFeasible) {
		t.Fatalf("want ErrNoFeasible, got %v", err)
	}
	// A batch of 1 excludes every grid that needs more than one sequence
	// per forward (meshes with q·d > 1).
	one := servingW
	one.Batch = 1
	plans, err := plan.SearchServing(one, plan.Topology{RankBudget: 64}, servingAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Predicted.MinBatch != 1 {
			t.Fatalf("batch 1 must exclude multi-shard grids, found %s (unit %d)", p, p.Predicted.MinBatch)
		}
	}
}

func TestServingPlanLayoutRoundTrip(t *testing.T) {
	plans, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 64}, servingAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans[:3] {
		l, err := parallel.Validate(p.Grid)
		if err != nil {
			t.Fatalf("%s: layout does not validate: %v", p, err)
		}
		if l.Ranks != p.Grid.Ranks {
			t.Fatalf("%s: layout ranks %d != grid ranks %d", p, l.Ranks, p.Grid.Ranks)
		}
		if l.RowShards() != p.Predicted.MinBatch {
			t.Fatalf("%s: layout row shards %d != predicted min batch %d", p, l.RowShards(), p.Predicted.MinBatch)
		}
	}
}

func TestFormatServing(t *testing.T) {
	plans, err := plan.SearchServing(servingW, plan.Topology{RankBudget: 64}, servingAlgos(), plan.ServingObjective{})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.FormatServingPlans("serving", plans, 5)
	for _, want := range []string{"serving", "min-lat(s)", "thru(r/s)", "megatron"} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatServingPlans output missing %q:\n%s", want, out)
		}
	}
}
