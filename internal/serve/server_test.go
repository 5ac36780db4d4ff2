package serve

import (
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"

	// Serving is family-agnostic; register all three for the parity tests.
	_ "repro/internal/megatron"
	_ "repro/internal/optimus"
	_ "repro/internal/tesseract"
)

// fixture is the tiny real-data ViT the serving tests run — small enough
// that every family layout serves in milliseconds.
func fixture() (*vit.Dataset, vit.ModelConfig, vit.TrainConfig) {
	dcfg := vit.DataConfig{Classes: 4, ImageSize: 8, Channels: 3, PatchSize: 4, Train: 8, Test: 4, Seed: 11}
	ds := vit.NewDataset(dcfg)
	mcfg := vit.ModelConfig{
		PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(),
		Hidden: 16, Heads: 4, Layers: 2, Classes: dcfg.Classes, Seed: 3,
	}
	tc := vit.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	return ds, mcfg, tc
}

// familyLayouts are the default representative of each registered family —
// the set every serving property is checked against.
func familyLayouts() []parallel.Layout {
	return []parallel.Layout{
		{Family: "megatron", Ranks: 4},
		{Family: "optimus", Q: 2},
		{Family: "tesseract", Q: 2, D: 2},
	}
}

// TestServeDeterministicAcrossRuns: batch formation and every latency stamp
// are a pure function of the arrival trace — rebuilding the cluster and
// re-running (fresh goroutines, different scheduling, -race -count=3 in CI)
// reproduces the report bit for bit.
func TestServeDeterministicAcrossRuns(t *testing.T) {
	ds, mcfg, tc := fixture()
	for _, l := range familyLayouts() {
		a := ArrivalConfig{N: 24, Rate: 30000, Seed: 17}
		run := func() *Report {
			srv, err := NewServer(l, ds, mcfg, tc, Config{MaxBatch: 4, LatencyBudget: 1e-4, QueueDepth: 8, KeepLogits: true})
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			if err := srv.TrainSteps(2); err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			rep, err := srv.Serve(a)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			return rep
		}
		x, y := run(), run()
		if len(x.Requests) != len(y.Requests) || len(x.Batches) != len(y.Batches) {
			t.Fatalf("%s: run shape differs: %d/%d requests, %d/%d batches",
				l, len(x.Requests), len(y.Requests), len(x.Batches), len(y.Batches))
		}
		for i := range x.Requests {
			if x.Requests[i] != y.Requests[i] {
				t.Fatalf("%s: request %d differs across runs:\n%+v\n%+v", l, i, x.Requests[i], y.Requests[i])
			}
		}
		for i := range x.Batches {
			if x.Batches[i] != y.Batches[i] {
				t.Fatalf("%s: batch %d differs across runs:\n%+v\n%+v", l, i, x.Batches[i], y.Batches[i])
			}
		}
		if !x.Logits.Equal(y.Logits) {
			t.Fatalf("%s: logits differ across runs", l)
		}
	}
}

// TestServeRepeatOnLiveCluster: serving the same trace twice on one live
// cluster (accumulated simulated clocks, warm pools) yields the identical
// report — durations are differences of synced clocks, not absolutes.
func TestServeRepeatOnLiveCluster(t *testing.T) {
	ds, mcfg, tc := fixture()
	srv, err := NewServer(parallel.Layout{Family: "tesseract", Q: 2, D: 2}, ds, mcfg, tc,
		Config{MaxBatch: 4, LatencyBudget: 1e-4, QueueDepth: 8, KeepLogits: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.TrainSteps(2); err != nil {
		t.Fatal(err)
	}
	a := ArrivalConfig{N: 24, Rate: 30000, Seed: 17}
	x, err := srv.Serve(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := srv.Serve(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Requests {
		if x.Requests[i] != y.Requests[i] {
			t.Fatalf("request %d differs on repeat: %+v vs %+v", i, x.Requests[i], y.Requests[i])
		}
	}
	if !x.Logits.Equal(y.Logits) {
		t.Fatal("logits differ on repeat serve")
	}
}

// TestInferenceMatchesTrainingForward: for every family layout, a model
// trained through the serving runtime holds bitwise the trainer's weights,
// and a served batch — including the ragged tail batch that needs padding —
// produces bitwise the logits of the trainer's eval forward on the same
// rows. This pins the serving forward to the training forward exactly, the
// eval-tail bug class included.
func TestInferenceMatchesTrainingForward(t *testing.T) {
	ds, mcfg, tc := fixture()
	for _, l := range familyLayouts() {
		// Burst of 7 at MaxBatch 4: batches [0..3] (full) and [4,5,6] — the
		// ragged tail, padded up to the family's row-shard unit (4 for
		// tesseract [2,2,2] and optimus [2,2]) by repeating the batch head's
		// sample.
		srv, err := NewServer(l, ds, mcfg, tc, Config{MaxBatch: 4, QueueDepth: 8, KeepLogits: true})
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if err := srv.TrainSteps(2); err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		rep, err := srv.Serve(Saturated(7))
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if len(rep.Batches) != 2 || rep.Batches[0].Size != 4 || rep.Batches[1].Size != 3 {
			t.Fatalf("%s: want batches of 4 and 3, got %+v", l, rep.Batches)
		}
		if unit := l.RowShards(); rep.Batches[1].Padded != ((3+unit-1)/unit)*unit {
			t.Fatalf("%s: tail batch padded to %d, want multiple of unit %d", l, rep.Batches[1].Padded, unit)
		}

		// The trainer-path reference: same layout, same seeds, same number
		// of steps down the trainer's exact step path.
		sb, err := vit.NewStepBencher(l, ds, mcfg, tc, 0)
		if err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		if err := sb.TrainSteps(2); err != nil {
			t.Fatalf("%s: %v", l, err)
		}
		for _, batch := range [][]int{{0, 1, 2, 3}, {4, 5, 6}} {
			want, err := sb.EvalLogits(batch)
			if err != nil {
				t.Fatalf("%s: %v", l, err)
			}
			for j, id := range batch {
				got := rep.Logits.Row(id)
				ref := want.Row(j)
				for k := range ref {
					if got[k] != ref[k] {
						t.Fatalf("%s: request %d logit %d: served %g, trainer eval %g — serving forward diverged bitwise",
							l, id, k, got[k], ref[k])
					}
				}
			}
		}
	}
}

// TestServerRejectsUntrainableLayout: an indivisible layout is one
// actionable error naming the offending dimension, not a panic.
func TestServerRejectsUntrainableLayout(t *testing.T) {
	ds, mcfg, tc := fixture()
	_, err := NewServer(parallel.Layout{Family: "megatron", Ranks: 3}, ds, mcfg, tc, Config{})
	if err == nil || !strings.Contains(err.Error(), "not divisible") {
		t.Fatalf("want a divisibility error, got %v", err)
	}
	_, err = NewServer(parallel.Layout{Family: "nosuch", Ranks: 4}, ds, mcfg, tc, Config{})
	if err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Fatalf("want an unknown-family error, got %v", err)
	}
}

// TestZeroConfigServerMatchesZeroConfigBencher: the session applies the
// TrainConfig defaults for every caller, so a server and a step bencher both
// built from the zero config hold bitwise the same weights and Adam moments
// after three trainer steps. (NewServer used to take the config raw and
// train with LR = 0 against the bencher's 0.003.)
func TestZeroConfigServerMatchesZeroConfigBencher(t *testing.T) {
	ds, mcfg, _ := fixture()
	l := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	srv, err := NewServer(l, ds, mcfg, vit.TrainConfig{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := vit.NewStepBencher(l, ds, mcfg, vit.TrainConfig{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.TrainSteps(3); err != nil {
		t.Fatal(err)
	}
	if err := sb.TrainSteps(3); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Collect(); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Collect(); err != nil {
		t.Fatal(err)
	}
	moved := false
	for r, want := range sb.Checkpoint() {
		got := srv.Checkpoint()[r]
		if got.Step != 3 || want.Step != 3 || len(got.Slots) != len(want.Slots) {
			t.Fatalf("rank %d checkpoint shape: server step %d, %d slots; bencher step %d, %d slots", r, got.Step, len(got.Slots), want.Step, len(want.Slots))
		}
		for i := range want.Slots {
			a, b := got.Slots[i], want.Slots[i]
			if !a.Value.Equal(b.Value) || !a.M.Equal(b.M) || !a.V.Equal(b.V) {
				t.Fatalf("rank %d slot %d: server and bencher differ after 3 zero-config steps", r, i)
			}
			moved = moved || a.M.MaxAbsDiff(tensor.New(a.M.Rows, a.M.Cols)) != 0
		}
	}
	if !moved {
		t.Fatal("no Adam moment moved: the comparison would pass on untrained models")
	}
}

// TestServerUnusableTrainBatch: a train batch the layout or the training
// split cannot use is TrainSteps' clean error — the same one whether the
// batch was spelled out or defaulted — never a refusal to build a server
// that only serves, and never a panic inside a worker that poisons the
// cluster: Serve still works afterwards.
func TestServerUnusableTrainBatch(t *testing.T) {
	ds, mcfg, _ := fixture()
	small := vit.NewDataset(vit.DataConfig{Classes: 2, ImageSize: 8, Channels: 3, PatchSize: 4, Train: 2, Test: 4, Seed: 11})
	smallCfg := mcfg
	smallCfg.Classes = 2
	mcfg.Hidden, mcfg.Heads = 12, 3 // splits over a q=3 mesh
	cases := []struct {
		name  string
		l     parallel.Layout
		ds    *vit.Dataset
		mcfg  vit.ModelConfig
		tcs   []vit.TrainConfig // must all fail identically
		wants []string
	}{
		{"default batch 8 on tesseract [3,3]", parallel.Layout{Family: "tesseract", Q: 3}, ds, mcfg,
			[]vit.TrainConfig{{}, {BatchSize: 8}}, []string{"batch 8 not divisible", "3 row shards"}},
		{"batch 8 on 4 training samples", parallel.Layout{Family: "megatron", Ranks: 2}, small, smallCfg,
			[]vit.TrainConfig{{}, {BatchSize: 8}}, []string{"batch 8", "4 training samples"}},
	}
	for _, tc := range cases {
		var first string
		for _, cfg := range tc.tcs {
			srv, err := NewServer(tc.l, tc.ds, tc.mcfg, cfg, Config{MaxBatch: 4})
			if err != nil {
				t.Fatalf("%s: a serve-only server was refused: %v", tc.name, err)
			}
			err = srv.TrainSteps(1)
			if err == nil {
				t.Fatalf("%s: TrainSteps succeeded", tc.name)
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error %q does not name %q", tc.name, err, want)
				}
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("%s: defaulted and spelled-out batch disagree:\n%s\n%s", tc.name, first, err)
			}
			rep, err := srv.Serve(Saturated(6))
			if err != nil {
				t.Fatalf("%s: Serve after the refused TrainSteps: %v", tc.name, err)
			}
			if rep.Completed != 6 {
				t.Errorf("%s: served %d of 6 requests", tc.name, rep.Completed)
			}
		}
	}
}
