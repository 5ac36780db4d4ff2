package vit

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
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
		"TrainFaulty":      func() error { _, err := TrainFaulty(l, nil, dist.Machine{}, ds, mcfg, tc, 2); return err },
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

// TestOneShotTrainersCloseTheirClusters: whoever builds a cluster closes it.
// Every entry point that trains on a cluster it builds and hands no session
// out leaves no rank goroutine behind once it returns — after a good run and
// after a refused batch alike, without waiting for the collector to release
// a dropped cluster. (NewStepBencher hands its session out when it
// succeeds.)
func TestOneShotTrainersCloseTheirClusters(t *testing.T) {
	ds, mcfg := tinyData()
	good, refused := elasticTC(), elasticTC()
	refused.BatchSize = 64
	for _, tc := range []TrainConfig{good, refused} {
		for name, run := range trainEntries(ds, mcfg, tc) {
			if name == "NewStepBencher" && tc.BatchSize == good.BatchSize {
				continue
			}
			base := quietGoroutines()
			err := run()
			if (err == nil) != (tc.BatchSize == good.BatchSize) {
				t.Fatalf("%s, batch %d: %v", name, tc.BatchSize, err)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%s, batch %d: %d goroutines after it returned, %d before", name, tc.BatchSize, n, base)
			}
		}
	}
}

// quietGoroutines collects until the goroutine count holds still and returns
// it: clusters earlier tests dropped release their rank goroutines only when
// the collector gets to them.
func quietGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 3 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
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

// TestReshardCycleAllocations: once warm, a megatron [4] → seqpar [4] →
// megatron [4] cycle of Train, Collect and Reshard on one cluster allocates
// only the two loss slices Train returns: the rank goroutines outlive a Run,
// the models walk their parameters and checkpoint slots once, and the batch,
// the per-rank checkpoints, the buddy exchange's views and the optimiser
// moments are reused in place. With a
// goroutine per rank per Run and a walk per call, a cycle made 364.
func TestReshardCycleAllocations(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	c := dist.New(dist.Config{WorldSize: 4})
	defer c.Close()
	var pair [2]*Session
	for i, family := range []string{"megatron", "seqpar"} {
		s, err := NewSession(c, parallel.Layout{Family: family, Ranks: 4}, ds, mcfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		pair[i] = s
	}
	cycle := func() {
		for i, from := range pair {
			to := pair[1-i]
			if _, err := from.Train(2); err != nil {
				t.Fatal(err)
			}
			if _, err := from.Collect(); err != nil {
				t.Fatal(err)
			}
			if _, err := to.Reshard(from.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			to.step = from.step
		}
	}
	for range 3 {
		cycle()
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs > 2 {
		t.Errorf("a warm megatron → seqpar → megatron cycle allocates %v times, want at most 2", allocs)
	}
}

// TestSessionBuildByteCeiling keeps what building a session allocates from
// creeping back up: the serving model (Hidden 64, no warm-up) on tesseract
// [2,2,2] and on megatron [4], built on a warm cluster. Each rank draws only
// its own rectangle of every weight (parallel.Weight is a recipe), so the
// bytes are each rank's shards and their gradients; each ceiling is the
// measured count, in the comment, plus at most 5 %. A rank that draws a
// full weight and cuts its block out — every rank holding the whole model
// for a moment — read 13.1 MB at tesseract [2,2,2].
func TestSessionBuildByteCeiling(t *testing.T) {
	ds, mcfg := tinyData()
	mcfg.Hidden = 64
	tc := elasticTC()
	for _, c := range []struct {
		l       parallel.Layout
		ceiling uint64
	}{
		{parallel.Layout{Family: "tesseract", Q: 2, D: 2, Ranks: 8}, 3_580_000}, // 3_410_128
		{parallel.Layout{Family: "megatron", Ranks: 4}, 1_950_000},              // 1_860_944
	} {
		cl := dist.New(dist.Config{WorldSize: c.l.Ranks})
		build := func() {
			if _, err := NewSession(cl, c.l, ds, mcfg, tc); err != nil {
				t.Fatal(err)
			}
		}
		got := bytesPerRun(5, build)
		cl.Close()
		if got > c.ceiling {
			t.Errorf("building a %v session allocates %d B, ceiling %d", c.l, got, c.ceiling)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs after a warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestNestedSessionCallRefused: a session verb called from inside one of
// the session's own operations gets dist.ErrRunActive, as a nested
// Cluster.Run does, and leaves the operation in flight undisturbed.
func TestNestedSessionCallRefused(t *testing.T) {
	ds, mcfg := tinyData()
	s, err := NewSession(nil, parallel.Layout{Family: "megatron", Ranks: 2}, ds, mcfg, elasticTC())
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, 1)
	err = s.run(runArg{losses: losses}, func(s *Session, w *dist.Worker) error {
		if w.Rank() == 0 {
			if _, err := s.Train(1); !errors.Is(err, dist.ErrRunActive) {
				return fmt.Errorf("nested Train returned %v, want ErrRunActive", err)
			}
		}
		return s.trainRank(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := TrainLayoutSteps(parallel.Layout{Family: "megatron", Ranks: 2}, ds, mcfg, elasticTC(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if losses[0] != want[0] {
		t.Errorf("the step around the refused call lost %.17g, a plain step %.17g", losses[0], want[0])
	}
}

// TestBackwardOverwritesEveryGrad: the distributed step (stepOn) does not
// zero the gradients before a backward pass, because every layer computes a
// parameter's partial into its Grad, overwriting it, before it lands. On
// the widest layout of at most 8 ranks the tiny workload fits, for every
// registered family, a backward pass from gradients filled with NaN leaves
// every rank's gradients bitwise equal to one from zeroed gradients.
func TestBackwardOverwritesEveryGrad(t *testing.T) {
	ds, mcfg := tinyData()
	const batch = 8
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, name := range parallel.Families() {
		layouts, err := parallel.Layouts(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		var l parallel.Layout
		for c := range layouts {
			if c.Ranks > l.Ranks && parallel.Fits(c, batch, mcfg.SeqLen, mcfg.Hidden, mcfg.Heads) {
				l = c
			}
		}
		if l.Ranks == 0 {
			t.Fatalf("%s: no layout of at most 8 ranks fits the workload", name)
		}
		grads := func(fill float64) [][]*tensor.Matrix {
			out := make([][]*tensor.Matrix, l.Ranks)
			testutil.Run(t, l.Ranks, func(w *dist.Worker) error {
				f, err := parallel.New(w, l)
				if err != nil {
					return err
				}
				model := NewDistModel(f, mcfg)
				logits := model.Forward(DistributeBatch(f, x, mcfg.SeqLen))
				_, dl := nn.CrossEntropy(logits, labels)
				for _, p := range model.Params() {
					p.Grad.Fill(fill)
				}
				model.Backward(dl)
				for _, p := range model.Params() {
					out[w.Rank()] = append(out[w.Rank()], p.Grad.Clone())
				}
				f.EndStep()
				return nil
			})
			return out
		}
		zeroed, poisoned := grads(0), grads(math.NaN())
		for r := range zeroed {
			for i, g := range zeroed[r] {
				if !poisoned[r][i].Equal(g) {
					t.Errorf("%s: rank %d, parameter %d: the gradient from NaN-filled Grads differs from the one from zeroed Grads", l, r, i)
				}
			}
		}
	}
}
