package vit

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"

	// The families the tests name register themselves with parallel.
	_ "repro/internal/megatron"
	_ "repro/internal/optimus"
	_ "repro/internal/seqpar"
	_ "repro/internal/tesseract"
)

// familyLayouts are the four schemes on comparable small arrangements.
func familyLayouts() []parallel.Layout {
	return []parallel.Layout{
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "optimus", Q: 2},
		{Family: "megatron", Ranks: 4},
		{Family: "seqpar", Ranks: 4},
	}
}

// TestOptimusBitwiseTesseractDepth1 pins the first-class d=1 delegation:
// an Optimus [2,2] session and a Tesseract [2,2,1] session are the same
// algorithm, so two steps' losses and the eval logits after them agree
// bitwise.
func TestOptimusBitwiseTesseractDepth1(t *testing.T) {
	ds, mcfg := tinyData()
	var losses [2][]float64
	var logits [2]*tensor.Matrix
	for i, l := range []parallel.Layout{{Family: "optimus", Q: 2}, {Family: "tesseract", Q: 2, D: 1}} {
		s, err := NewSession(nil, l, ds, mcfg, elasticTC())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Cluster().Close()
		if losses[i], err = s.Train(2); err == nil {
			logits[i], err = s.EvalLogits([]int{0, 1, 2, 3})
		}
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
	}
	if !reflect.DeepEqual(losses[0], losses[1]) || !logits[0].Equal(logits[1]) {
		t.Fatalf("optimus [2,2] and tesseract [2,2,1] diverged bitwise: losses %v and %v, max|Δ logits| = %g",
			losses[0], losses[1], logits[0].MaxAbsDiff(logits[1]))
	}
}

// TestSearchInstantiateTrain closes the plan→run gap for every family in
// one test: plan.Search ranks layouts for the tiny ViT workload, the best
// candidate of EACH family is built from its Grid by parallel.New on a
// matching cluster, and a ViT training step must run and match the serial
// forward loss.
func TestSearchInstantiateTrain(t *testing.T) {
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})

	serial := NewModel(mcfg)
	wantLoss, _ := nn.CrossEntropy(serial.Forward(x), labels)

	w := plan.Workload{Batch: tc.BatchSize, SeqLen: mcfg.SeqLen, Hidden: mcfg.Hidden, Heads: mcfg.Heads, Layers: mcfg.Layers}
	algos := []plan.Algo{"tesseract", "optimus", "megatron", "seqpar"}
	plans, err := plan.Search(w, plan.Topology{RankBudget: 8}, algos)
	if err != nil {
		t.Fatal(err)
	}

	// The best candidate per family, in rank order.
	best := map[string]plan.Plan{}
	for _, p := range plans {
		if _, seen := best[p.Family]; !seen {
			best[p.Family] = p
		}
	}
	if len(best) != 4 {
		t.Fatalf("search ranked %d families, want 4 (%v)", len(best), plans)
	}

	for fam, p := range best {
		losses := make([]float64, p.Grid.Ranks)
		c := dist.New(dist.Config{WorldSize: p.Grid.Ranks})
		err := c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, p.Grid)
			if err != nil {
				return err
			}
			if f.Layout().Family != fam {
				t.Errorf("plan %s built family %q", p, f.Layout().Family)
			}
			model := NewDistModel(f, mcfg)
			params := model.Params()
			lg := model.Forward(DistributeBatch(f, x, mcfg.SeqLen))
			loss, dl := nn.CrossEntropy(lg, labels)
			losses[w.Rank()] = loss
			for _, pa := range params {
				pa.ZeroGrad()
			}
			model.Backward(dl)
			nn.NewAdam(tc.LR, tc.WeightDecay).Step(params)
			f.EndStep()
			return nil
		})
		if err != nil {
			t.Fatalf("plan %s: %v", p, err)
		}
		for r, loss := range losses {
			if d := math.Abs(loss - wantLoss); d > 1e-8 {
				t.Fatalf("plan %s rank %d: loss %g vs serial %g", p, r, loss, wantLoss)
			}
		}
	}
}

// peakWorkspaceBytes trains two steady-state steps under a layout and
// returns the largest per-rank workspace high-water mark — the peak live
// activation/scratch bytes any rank held.
func peakWorkspaceBytes(t *testing.T, l parallel.Layout) int64 {
	t.Helper()
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	sb, err := NewStepBencher(l, ds, mcfg, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Steps(2); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var peak int64
	err = sb.Cluster().Run(func(w *dist.Worker) error {
		hw := w.Workspace().Stats().HighWaterBytes
		mu.Lock()
		if hw > peak {
			peak = hw
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestSeqparMemoryGate pins the family's reason to exist: at p = 4 a
// sequence-parallel rank's peak live workspace bytes across a training
// step must be at most half of a Megatron rank's, because the residual
// stream, layer norms and saved activations live on 1/p of the rows while
// gathered full-row buffers stay transient.
func TestSeqparMemoryGate(t *testing.T) {
	seq := peakWorkspaceBytes(t, parallel.Layout{Family: "seqpar", Ranks: 4})
	meg := peakWorkspaceBytes(t, parallel.Layout{Family: "megatron", Ranks: 4})
	if seq <= 0 || meg <= 0 {
		t.Fatalf("expected positive high-water marks, got seqpar=%d megatron=%d", seq, meg)
	}
	if ratio := float64(seq) / float64(meg); ratio > 0.5 {
		t.Fatalf("seqpar peak workspace %d B is %.3f of megatron's %d B, want <= 0.5", seq, ratio, meg)
	}
}

// TestSearchMemoryBudgetPrefersSeqpar pins the planner-level trade: on a
// paper-scale layer with the per-rank memory budget set to exactly what a
// sequence-parallel rank needs, every activation-replicating family is
// infeasible and the search must return seqpar plans alone.
func TestSearchMemoryBudgetPrefersSeqpar(t *testing.T) {
	w := plan.Workload{Batch: 16, SeqLen: 512, Hidden: 1024, Heads: 16, Layers: 2}
	held, err := plan.Price(w, parallel.Layout{Family: "seqpar", Ranks: 4}, plan.Topology{})
	if err != nil {
		t.Fatal(err)
	}
	budget := held.MemoryBytes
	algos := []plan.Algo{"tesseract", "optimus", "megatron", "seqpar"}
	plans, err := plan.Search(w, plan.Topology{RankBudget: 4, ExactRanks: true, MemoryBudget: budget}, algos)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no feasible plans under the seqpar memory budget")
	}
	for _, p := range plans {
		if p.Family != "seqpar" {
			t.Fatalf("family %s fit the seqpar budget %d: %v", p.Family, budget, p)
		}
	}
	if plans[0].Family != "seqpar" || plans[0].Grid.Ranks != 4 {
		t.Fatalf("top plan %v, want seqpar [4]", plans[0])
	}

	// Sanity: the same search without the budget keeps all four families,
	// and seqpar is never the fastest — its edge is memory, not time.
	unconstrained, err := plan.Search(w, plan.Topology{RankBudget: 4, ExactRanks: true}, algos)
	if err != nil {
		t.Fatal(err)
	}
	if unconstrained[0].Family == "seqpar" {
		t.Fatalf("seqpar won on time without a memory budget: %v", unconstrained[0])
	}
}
