package dist

import (
	"math"
	"testing"
)

func TestCostModelPartialOverrideGetsPerFieldDefaults(t *testing.T) {
	// Regression: WithDefaults used to check only FLOPS == 0, so a caller
	// overriding a single communication field ended up with a model whose
	// other fields were zero — Inf/NaN compute times or free links.
	def := MeluxinaModel()
	m := CostModel{Alpha: 5e-6}.WithDefaults()
	if m.Alpha != 5e-6 {
		t.Fatalf("explicit Alpha %g was overwritten to %g", 5e-6, m.Alpha)
	}
	if m.FLOPS != def.FLOPS || m.BetaIntra != def.BetaIntra || m.BetaInter != def.BetaInter {
		t.Fatalf("unset fields must take the Meluxina preset, got %+v", m)
	}
	if t1 := 1e12 / m.FLOPS; math.IsInf(t1, 0) || math.IsNaN(t1) || t1 <= 0 {
		t.Fatalf("compute time %g must be finite and positive", t1)
	}

	m = CostModel{FLOPS: 1e12}.WithDefaults()
	if m.FLOPS != 1e12 {
		t.Fatalf("explicit FLOPS overwritten: %+v", m)
	}
	if m.Alpha != def.Alpha || m.BetaIntra != def.BetaIntra || m.BetaInter != def.BetaInter {
		t.Fatalf("communication fields must default, got %+v", m)
	}

	if m := (CostModel{}).WithDefaults(); m != def {
		t.Fatalf("zero model must equal the full preset, got %+v", m)
	}
}

// TestCostModelNegativeFieldPanics: one rule, two deliveries — Check
// returns the error a configuration reader reports, WithDefaults (and so
// dist.New) panics with it — for every field and every kind of nonsense.
func TestCostModelNegativeFieldPanics(t *testing.T) {
	for _, ok := range []CostModel{{}, MeluxinaModel(), {Alpha: 5e-6}} {
		if err := ok.Check(); err != nil {
			t.Errorf("model %+v must pass Check: %v", ok, err)
		}
	}
	for _, bad := range []CostModel{
		{FLOPS: -1},
		{Alpha: -1e-6},
		{BetaIntra: -1},
		{BetaInter: -1},
		{FLOPS: math.NaN()},
		{Alpha: math.NaN()},
		{BetaIntra: math.NaN()},
		{BetaInter: math.NaN()},
		{FLOPS: math.Inf(1)},
		{Alpha: math.Inf(1)},
		{BetaIntra: math.Inf(1)},
		{BetaInter: math.Inf(-1)},
	} {
		if bad.Check() == nil {
			t.Errorf("model %+v must fail Check", bad)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("model %+v must panic", bad)
				}
			}()
			bad.WithDefaults()
		}()
	}
}

func TestClusterWithPartialCostModelHasFiniteClocks(t *testing.T) {
	c := New(Config{WorldSize: 2, Cost: CostModel{Alpha: 1e-6}})
	if err := c.Run(func(w *Worker) error {
		w.Compute(1e9)
		w.Cluster().WorldGroup().Barrier(w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if mc := c.MaxClock(); math.IsInf(mc, 0) || math.IsNaN(mc) || mc <= 0 {
		t.Fatalf("simulated clock %g must be finite and positive", mc)
	}
}

func TestOverlapEstimates(t *testing.T) {
	if got := HiddenFraction(4, 2); got != 0.5 {
		t.Fatalf("HiddenFraction(4,2) = %g, want 0.5 (compute hides half the comm)", got)
	}
	if got := HiddenFraction(2, 4); got != 1 {
		t.Fatalf("HiddenFraction(2,4) = %g, want 1 (comm fully hidden)", got)
	}
	if got := HiddenFraction(0, 4); got != 1 {
		t.Fatalf("HiddenFraction(0,4) = %g, want the trivial 1", got)
	}
	m := MeluxinaModel()
	// Exported pricing helpers agree with the internal charge functions.
	if got, want := m.BroadcastSeconds(4, 1024, false), m.broadcastTime(4, 1024, m.BetaIntra); got != want {
		t.Fatalf("BroadcastSeconds intra = %g, want %g", got, want)
	}
	if got, want := m.BroadcastSeconds(4, 1024, true), m.broadcastTime(4, 1024, m.BetaInter); got != want {
		t.Fatalf("BroadcastSeconds inter = %g, want %g", got, want)
	}
	if got := m.GEMMSeconds(10, 20, 30); got != 2*10*20*30/m.FLOPS {
		t.Fatalf("GEMMSeconds = %g", got)
	}
}

// TestTreeStepsAndSingletonGroups pins the tree-depth helper at the edges
// the planner leans on: a singleton group communicates for free, and
// non-power-of-two groups round the tree depth up.
func TestTreeStepsAndSingletonGroups(t *testing.T) {
	for n, want := range map[int]float64{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 7: 3, 8: 3, 9: 4, 64: 6} {
		if got := treeSteps(n); got != want {
			t.Errorf("treeSteps(%d) = %g, want %g", n, got, want)
		}
	}
	m := MeluxinaModel()
	const b = int64(1 << 20)
	for _, beta := range []float64{m.BetaIntra, m.BetaInter} {
		if got := m.broadcastTime(1, b, beta); got != 0 {
			t.Errorf("broadcast (and reduce) over a singleton must be free, got %g", got)
		}
		if got := m.allReduceTime(1, b, beta); got != 0 {
			t.Errorf("all-reduce over a singleton must be free, got %g", got)
		}
		if got := m.allGatherTime(1, b, beta); got != 0 {
			t.Errorf("all-gather over a singleton must be free, got %g", got)
		}
		if got := m.reduceScatterTime(1, b, beta); got != 0 {
			t.Errorf("reduce-scatter over a singleton must be free, got %g", got)
		}
	}
	if got := m.barrierTime(1); got != 0 {
		t.Errorf("barrier over a singleton must be free, got %g", got)
	}
}

// TestNonPowerOfTwoGroupPricing spells out the charges for group sizes
// that are not powers of two — the shapes a [3,3,d] or 5-rank Megatron
// layout produces.
func TestNonPowerOfTwoGroupPricing(t *testing.T) {
	m := MeluxinaModel()
	const b = int64(4096)
	bf := float64(b)
	if got, want := m.BroadcastSeconds(3, b, false), 2*(m.Alpha+bf*m.BetaIntra); got != want {
		t.Errorf("broadcast over 3 = %g, want two tree steps %g", got, want)
	}
	if got, want := m.allReduceTime(3, b, m.BetaInter), 2*2*(m.Alpha+bf/3*m.BetaInter); got != want {
		t.Errorf("all-reduce over 3 = %g, want 2(n−1) ring steps %g", got, want)
	}
	if got, want := m.allGatherTime(5, b, m.BetaIntra), 4*(m.Alpha+bf*m.BetaIntra); got != want {
		t.Errorf("all-gather over 5 = %g, want n−1 ring steps %g", got, want)
	}
	if got, want := m.BroadcastSeconds(6, b, true), 3*(m.Alpha+bf*m.BetaInter); got != want {
		t.Errorf("broadcast over 6 across nodes = %g, want three tree steps %g", got, want)
	}
}
