package vit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestTrainBatchLargerThanTrainingSplit: a train batch the training split
// cannot fill used to divide by zero inside a worker (TrainLayoutSteps) or
// return a NaN curve with a nil error (TrainLayout). Every entry point that
// trains now returns the session's one error, naming both numbers, before
// any step runs.
func TestTrainBatchLargerThanTrainingSplit(t *testing.T) {
	ds, mcfg := tinyData() // 32 training samples
	tc := elasticTC()
	tc.BatchSize = 64
	for name, run := range trainEntries(ds, mcfg, tc) {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "batch 64") || !strings.Contains(err.Error(), "32 training samples") {
			t.Errorf("%s: want one error naming batch 64 and the 32 training samples, got %v", name, err)
		}
	}
}

// trainEntries is every distributed entry point that builds a session from a
// TrainConfig, each reduced to the error it returns.
func trainEntries(ds *Dataset, mcfg ModelConfig, tc TrainConfig) map[string]func() error {
	l := tess22
	return map[string]func() error{
		"TrainLayout":      func() error { _, err := TrainLayout(l, ds, mcfg, tc); return err },
		"TrainLayoutSteps": func() error { _, err := TrainLayoutSteps(l, ds, mcfg, tc, 2); return err },
		"TrainFaulty":      func() error { _, err := TrainFaulty(l, nil, dist.CostModel{}, ds, mcfg, tc, 2); return err },
		"TrainElastic": func() error {
			_, err := TrainElastic(l, ElasticConfig{FailStep: 1, TotalSteps: 2, FailRank: -1,
				Algos: elasticAlgos(), Topology: elasticTopology(mcfg, tc)}, ds, mcfg, tc)
			return err
		},
		"TrainAdaptive": func() error {
			_, err := TrainAdaptive(l, AdaptiveConfig{TotalSteps: 2, Algos: elasticAlgos(),
				Topology: adaptiveTopology(mcfg, tc)}, ds, mcfg, tc)
			return err
		},
		"NewStepBencher": func() error { _, err := NewStepBencher(l, ds, mcfg, tc, 0); return err },
	}
}

// TestBadOptimiserSettingsAreErrors: a learning rate or weight decay that is
// negative or not finite used to train NaN weights and hand them back as a
// curve with a nil error. Every entry point, the serial trainer included, now
// returns the one error TrainConfig.Check reports; zero still means default.
func TestBadOptimiserSettingsAreErrors(t *testing.T) {
	ds, mcfg := tinyData()
	bad := map[string]func(*TrainConfig){
		"learning rate NaN":  func(tc *TrainConfig) { tc.LR = math.NaN() },
		"learning rate -1":   func(tc *TrainConfig) { tc.LR = -1 },
		"learning rate +Inf": func(tc *TrainConfig) { tc.LR = math.Inf(1) },
		"weight decay -5":    func(tc *TrainConfig) { tc.WeightDecay = -5 },
		"weight decay NaN":   func(tc *TrainConfig) { tc.WeightDecay = math.NaN() },
		"weight decay +Inf":  func(tc *TrainConfig) { tc.WeightDecay = math.Inf(1) },
	}
	for want, set := range bad {
		tc := elasticTC()
		set(&tc)
		entries := trainEntries(ds, mcfg, tc)
		entries["TrainSerial"] = func() error { _, err := TrainSerial(ds, mcfg, tc); return err }
		entries["Check"] = tc.Check
		for name, run := range entries {
			if err := run(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: want an error naming %q, got %v", name, want, err)
			}
		}
	}
	if err := (TrainConfig{}).Check(); err != nil {
		t.Fatalf("the zero TrainConfig means all defaults: %v", err)
	}
	if tc, err := (TrainConfig{}).withDefaults(); err != nil || tc.LR != 0.003 {
		t.Fatalf("LR 0 must keep meaning the default 0.003, got %v, %v", tc.LR, err)
	}
}

// TestEpochTrainerSeesStepTrainerBatches: TrainLayout's per-epoch Loss[e] is
// the in-order mean of TrainLayoutSteps' losses over that epoch, bit for
// bit — the epoch trainer and the step trainer walk one batch sequence.
func TestEpochTrainerSeesStepTrainerBatches(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	tc.Epochs = 3
	spe := len(ds.Train) / tc.BatchSize
	for _, l := range familyLayouts() {
		hist, err := TrainLayout(l, ds, mcfg, tc)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		steps, err := TrainLayoutSteps(l, ds, mcfg, tc, tc.Epochs*spe)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		for e := 0; e < tc.Epochs; e++ {
			var sum float64
			for _, loss := range steps[e*spe : (e+1)*spe] {
				sum += loss
			}
			if want := sum / float64(spe); hist.Loss[e] != want {
				t.Errorf("%s epoch %d: TrainLayout loss %.17g, mean of the step losses %.17g", l, e, hist.Loss[e], want)
			}
		}
	}
}

// requireNoLiveBuffers fails if any rank of the session's cluster still
// holds workspace buffers at a Run boundary.
func requireNoLiveBuffers(t *testing.T, s *Session, after string) {
	t.Helper()
	stats, err := s.WorkspaceStats()
	if err != nil {
		t.Fatal(err)
	}
	for r, st := range stats {
		if st.Live != 0 {
			t.Fatalf("after %s: rank %d holds %d live workspace buffers", after, r, st.Live)
		}
	}
}

// TestTwoSessionsShareOneCluster alternates a megatron [4] and a seqpar [4]
// session on one cluster, handing the weights over through Collect/Reshard
// every few steps (what the benchmark's train-1d-elastic workload does). The
// final logits must equal a pure megatron run's within the cross-layout
// 1e-8, and no rank may hold a workspace buffer after any Train, Collect,
// Reshard or EvalLogits.
func TestTwoSessionsShareOneCluster(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const stride, rounds = 3, 4
	rows := []int{0, 1, 2, 3, 4, 5, 6}

	c := dist.New(dist.Config{WorldSize: 4})
	pair := make([]*Session, 2)
	for i, family := range []string{"megatron", "seqpar"} {
		s, err := NewSession(c, parallel.Layout{Family: family, Ranks: 4}, ds, mcfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		pair[i] = s
	}
	var got *tensor.Matrix
	for round := 0; round < rounds; round++ {
		cur, next := pair[round%2], pair[(round+1)%2]
		if _, err := cur.Train(stride); err != nil {
			t.Fatal(err)
		}
		requireNoLiveBuffers(t, cur, "Train")
		var err error
		if got, err = cur.EvalLogits(rows); err != nil {
			t.Fatal(err)
		}
		requireNoLiveBuffers(t, cur, "EvalLogits")
		if _, err := cur.Collect(); err != nil {
			t.Fatal(err)
		}
		requireNoLiveBuffers(t, cur, "Collect")
		if _, err := next.Reshard(cur.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		requireNoLiveBuffers(t, next, "Reshard")
		next.step = cur.step // a checkpoint does not carry the batch position; Relayout does
	}

	ref, err := NewSession(nil, parallel.Layout{Family: "megatron", Ranks: 4}, ds, mcfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Train(stride * rounds); err != nil {
		t.Fatal(err)
	}
	want, err := ref.EvalLogits(rows)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 1e-8 {
		t.Fatalf("alternating megatron/seqpar logits differ from the pure megatron run by %g", d)
	}
}

// TestRelayoutContinuesLossCurve: over every ordered pair of the four
// default family layouts, training three steps at one, Relayout onto the
// other (on the same 8-rank cluster, so 4-rank layouts leave half of it
// idle) and training three more continues the loss curve of an
// uninterrupted run at the target within 1e-8.
func TestRelayoutContinuesLossCurve(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const before, after = 3, 3
	refs := map[parallel.Layout][]float64{}
	for _, l := range familyLayouts() {
		ref, err := TrainLayoutSteps(l, ds, mcfg, tc, before+after)
		if err != nil {
			t.Fatal(err)
		}
		refs[l] = ref
	}
	for _, from := range familyLayouts() {
		for _, to := range familyLayouts() {
			if from == to {
				continue
			}
			c := dist.New(dist.Config{WorldSize: 8})
			s, err := NewSession(c, from, ds, mcfg, tc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Train(before); err != nil {
				t.Fatalf("%s: %v", from, err)
			}
			s2, collect, restore, err := s.Relayout(c, to)
			if err != nil {
				t.Fatalf("%s → %s: %v", from, to, err)
			}
			if collect <= 0 || restore <= 0 {
				t.Errorf("%s → %s: relayout cost not positive: collect %g, restore %g", from, to, collect, restore)
			}
			losses, err := s2.Train(after)
			if err != nil {
				t.Fatalf("%s → %s: %v", from, to, err)
			}
			for i, loss := range losses {
				if d := math.Abs(loss - refs[to][before+i]); d > 1e-8 {
					t.Errorf("%s → %s step %d: loss %.12f vs uninterrupted %.12f (|Δ|=%.3g)",
						from, to, before+i, loss, refs[to][before+i], d)
				}
			}
			requireNoLiveBuffers(t, s2, "Relayout+Train")
		}
	}
}
