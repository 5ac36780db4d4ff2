package main

import (
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/testutil"
	"repro/internal/vit"
)

const asCLI = "VIT_TRAIN_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestGolden holds each invocation's stdout and stderr (where the command
// reports) to its file under testdata, byte for byte (testutil.Golden): the
// Figure 7 trio, a planned layout, the elastic and chaos runs, and a served
// trace. `go test ./cmd/vit-train -update` rewrites the files.
func TestGolden(t *testing.T) {
	small := []string{"-epochs", "10", "-train-per-class", "8", "-classes", "4"}
	for _, golden := range []struct {
		name string // testdata/<name>.golden
		args []string
	}{
		{"figure7", small},
		{"plan4", append([]string{"-plan", "4"}, small...)},
		{"elastic", append([]string{"-elastic"}, small...)},
		{"chaos-seed1", append([]string{"-chaos", "-chaos-seed", "1"}, small...)},
		{"chaos-seed3", append([]string{"-chaos", "-chaos-seed", "3"}, small...)},
		{"chaos-seed5", append([]string{"-chaos", "-chaos-seed", "5"}, small...)},
		{"serve", []string{"-serve", "-serve-rate", "2000/s", "-serve-requests", "24", "-classes", "4", "-train-per-class", "8"}},
	} {
		t.Run(golden.name, func(t *testing.T) {
			testutil.Golden(t, asCLI, golden.name, true, golden.args...)
		})
	}
}

// vitTrain runs the CLI on a 16-sample dataset and returns its exit code
// and both streams.
func vitTrain(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	base := []string{"-epochs", "1", "-classes", "4", "-train-per-class", "4", "-test-per-class", "2"}
	return testutil.RunCLI(t, asCLI, append(base, args...)...)
}

// TestMisuseIsOneLineBeforeTraining: flag values the model or the layout
// cannot honour exit 1 with a single actionable line on stderr and nothing
// on stdout, in every mode — these used to reach a divide by zero, an nn
// constructor panic, an index out of range in the Adam kernel after the CSV
// header, a model with no blocks, a NaN curve declared a success, or an error
// printed only after the serial baseline had trained.
func TestMisuseIsOneLineBeforeTraining(t *testing.T) {
	misuses := []struct {
		name string
		args []string
		want string // substring of the message
	}{
		{"no heads", []string{"-heads", "0"}, "heads"},
		{"hidden not divisible by heads", []string{"-hidden", "66", "-heads", "4"}, "66"},
		// -plan refuses non-positive workload dimensions in plan's own line.
		{"no hidden width", []string{"-hidden", "0"}, "hidden"},
		{"negative hidden width", []string{"-hidden", "-4"}, "hidden"},
		{"no classes", []string{"-classes", "0"}, "class count 0"},
		{"no training samples", []string{"-train-per-class", "0"}, "-train-per-class 0"},
		{"no test samples", []string{"-test-per-class", "0"}, "-test-per-class 0"},
		{"negative layers", []string{"-layers", "-1"}, "layer"},
		{"batch larger than the dataset", []string{"-batch", "64"}, "-batch 64"},
		{"layout without ranks", []string{"-family", "megatron", "-ranks", "0"}, "rank count"},
		// A mesh dimension or depth below 1 used to read as unset: -d 0
		// trained tesseract [2,2], -q 0 blamed a missing q or -ranks.
		{"mesh dimension 0", []string{"-family", "tesseract", "-q", "0"}, "-q 0"},
		{"depth 0", []string{"-family", "tesseract", "-d", "0"}, "-d 0"},
		{"mesh dimension and depth 0", []string{"-family", "tesseract", "-q", "0", "-d", "0"}, "-q 0"},
		{"optimus depth 0", []string{"-family", "optimus", "-d", "0"}, "-d 0"},
		// The Grid arrangement refuses a depth before a cluster is sized.
		{"optimus depth 2", []string{"-family", "optimus", "-d", "2"}, "optimus is a 2-D family and cannot take depth 2"},
		{"NaN lr", []string{"-lr", "NaN"}, "learning rate NaN"},
		{"negative lr", []string{"-lr", "-1"}, "learning rate -1"},
		// -lr 0 and -seed 0 used to run TrainConfig's and DataConfig's
		// defaults in silence.
		{"zero lr", []string{"-lr", "0"}, "-lr 0"},
		{"zero seed", []string{"-seed", "0"}, "-seed 0"},
		{"negative weight decay", []string{"-weight-decay", "-5"}, "weight decay -5"},
	}
	modes := []struct {
		name string
		args []string
	}{
		{"figure7", nil},
		{"plan", []string{"-plan", "4"}},
		{"elastic", []string{"-elastic"}},
		{"chaos", []string{"-chaos"}},
		{"serve", []string{"-serve"}},
	}
	for _, mode := range modes {
		for _, mis := range misuses {
			if mode.name == "plan" && mis.args[0] == "-family" {
				continue // -plan overrides -family: the flags are not a misuse there
			}
			t.Run(mode.name+"/"+mis.name, func(t *testing.T) {
				code, stdout, stderr := vitTrain(t, append(mode.args, mis.args...)...)
				testutil.CheckMisuse(t, "vit-train", mis.want, code, stdout, stderr)
			})
		}
	}
	// A staged mode's own flags are checked up front too: these used to print
	// the banner first, and a negative request count failed only after
	// training. The test dataset makes two steps in all.
	for _, mis := range []struct {
		name string
		args []string
		want string
	}{
		{"serve/unparsable rate", []string{"-serve", "-serve-rate", "bogus"}, `rate "bogus"`},
		{"serve/negative budget", []string{"-serve", "-serve-budget", "-3ms"}, `duration "-3ms"`},
		{"serve/negative requests", []string{"-serve", "-serve-requests", "-1"}, "-serve-requests -1"},
		// The batcher names the value it refuses; it used to print its whole
		// config, KeepLogits test hook and all.
		{"serve/negative batch", []string{"-serve", "-serve-batch", "-1"}, "-serve-batch -1 must be at least 1"},
		{"serve/negative depth", []string{"-serve", "-serve-depth", "-1"}, "-serve-depth -1 must be at least 1"},
		{"serve/zero batch", []string{"-serve", "-serve-batch", "0"}, "-serve-batch 0 must be at least 1"},
		{"serve/zero depth", []string{"-serve", "-serve-depth", "0"}, "-serve-depth 0 must be at least 1"},
		{"serve/zero budget", []string{"-serve", "-serve-budget", "0"}, "-serve-budget 0 must be above zero"},
		{"serve/zero budget with a unit", []string{"-serve", "-serve-budget", "0ms"}, "-serve-budget 0ms must be above zero"},
		{"serve/negative steps", []string{"-serve", "-serve-steps", "-2"}, "-serve-steps -2"},
		{"elastic/fail step past the run", []string{"-elastic", "-fail-step", "99"}, "-fail-step 99"},
		// Zero is the default (halfway); a negative step used to mean it too.
		{"elastic/negative fail step", []string{"-elastic", "-fail-step", "-3"}, "-fail-step -3"},
		{"elastic/one step", []string{"-elastic", "-batch", "16"}, "at least 2 total steps"},
		{"chaos/too few steps", []string{"-chaos"}, "at least 24 total steps"},
		// These used to panic in the dataset constructor, or exit 0 having
		// trained nothing or the default trio; zero keeps meaning the default.
		{"negative train samples", []string{"-train-per-class", "-2"}, "training samples per class -2"},
		{"negative test samples", []string{"-test-per-class", "-1"}, "test samples per class -1"},
		{"negative epochs", []string{"-epochs", "-1"}, "epoch count -1"},
		// Zero used to train the default 5 epochs in Figure 7 mode while
		// -elastic and -chaos refused it for having no steps.
		{"zero epochs", []string{"-epochs", "0"}, "epoch count 0"},
		{"elastic/zero epochs", []string{"-elastic", "-epochs", "0"}, "epoch count 0"},
		{"chaos/zero epochs", []string{"-chaos", "-epochs", "0"}, "epoch count 0"},
		{"negative plan budget", []string{"-plan", "-2"}, "-plan -2"},
		// The staged modes train -family's layout; -plan used to be dropped
		// in silence and the default tesseract [2,2,2] trained instead.
		{"chaos/plan", []string{"-chaos", "-plan", "4"}, "-plan 4"},
		{"serve/plan", []string{"-serve", "-plan", "4"}, "-plan 4"},
		{"elastic/plan", []string{"-elastic", "-plan", "4"}, "-plan 4"},
		// One rank has no survivor, and one survivor of two cannot hold the
		// model under the distributed replan budget: both used to train,
		// then fail to replan.
		{"elastic/one rank", []string{"-elastic", "-family", "megatron", "-ranks", "1"}, "at least 3 ranks"},
		{"elastic/two ranks", []string{"-elastic", "-family", "seqpar", "-ranks", "2"}, "at least 3 ranks, seqpar [2] has 2"},
	} {
		t.Run(mis.name, func(t *testing.T) {
			code, stdout, stderr := vitTrain(t, mis.args...)
			testutil.CheckMisuse(t, "vit-train", mis.want, code, stdout, stderr)
		})
	}
}

// TestValidFlagsStillTrain: the up-front checks do not reject what worked.
func TestValidFlagsStillTrain(t *testing.T) {
	code, stdout, stderr := vitTrain(t, "-family", "seqpar", "-ranks", "2")
	if code != 0 || !strings.Contains(stdout, "seqpar [2],1,") || !strings.Contains(stderr, "done") {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestLayoutFromFlags: the flag→layout mapping per family, and rejection of
// explicitly set flags that do not apply — a silently dropped -d would train
// a different layout than asked for.
func TestLayoutFromFlags(t *testing.T) {
	l, err := layoutFromFlags("megatron", 2, 1, 8, map[string]bool{"ranks": true})
	if err != nil || l.Ranks != 8 || l.Q != 0 {
		t.Fatalf("megatron: got %+v, %v", l, err)
	}
	l, err = layoutFromFlags("tesseract", 2, 2, 4, map[string]bool{"q": true, "d": true})
	if err != nil || l.Q != 2 || l.D != 2 {
		t.Fatalf("tesseract: got %+v, %v", l, err)
	}
	if _, err := layoutFromFlags("megatron", 2, 1, 8, map[string]bool{"q": true}); err == nil || !strings.Contains(err.Error(), "-q/-d") {
		t.Fatalf("megatron with -q must error actionably, got %v", err)
	}
	if _, err := layoutFromFlags("optimus", 2, 1, 8, map[string]bool{"ranks": true}); err == nil || !strings.Contains(err.Error(), "-ranks") {
		t.Fatalf("optimus with -ranks must error actionably, got %v", err)
	}
}

// TestLayoutValidationIsOneLine: the unknown-family and indivisible-layout
// paths the CLI prints resolve to single actionable errors, never panics.
func TestLayoutValidationIsOneLine(t *testing.T) {
	l, err := layoutFromFlags("bogus", 2, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parallel.Validate(l); err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Fatalf("want unknown-family error, got %v", err)
	}
	mcfg := vit.ModelConfig{PatchDim: 48, SeqLen: 16, Hidden: 64, Heads: 4, Layers: 2, Classes: 10, Seed: 1}
	err = vit.TrainableErr(parallel.Layout{Family: "megatron", Ranks: 3}, 8, mcfg)
	if err == nil || !strings.Contains(err.Error(), "not divisible") || strings.Contains(err.Error(), "\n") {
		t.Fatalf("want a one-line divisibility error, got %q", err)
	}
	err = vit.TrainableErr(parallel.Layout{Family: "tesseract", Q: 3, D: 1}, 9, mcfg)
	if err == nil || !strings.Contains(err.Error(), "q=3") {
		t.Fatalf("want a mesh-side divisibility error, got %v", err)
	}
	// Model-only checks hold whatever the layout.
	for _, bad := range []vit.ModelConfig{{Hidden: 64, Heads: 0}, {Hidden: 66, Heads: 4}} {
		if err := vit.TrainableErr(parallel.Layout{Family: "megatron", Ranks: 1}, 8, bad); err == nil || !strings.Contains(err.Error(), "heads") {
			t.Fatalf("hidden %d heads %d: want a heads error, got %v", bad.Hidden, bad.Heads, err)
		}
	}
}
