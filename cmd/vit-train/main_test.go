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
		{"negative layers", []string{"-layers", "-1"}, "layer"},
		{"batch larger than the dataset", []string{"-batch", "64"}, "-batch 64"},
		{"layout without ranks", []string{"-family", "megatron", "-ranks", "0"}, "rank count"},
		{"NaN lr", []string{"-lr", "NaN"}, "learning rate NaN"},
		{"negative lr", []string{"-lr", "-1"}, "learning rate -1"},
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
			if mode.name == "plan" && mis.name == "layout without ranks" {
				continue // -plan overrides -family: the flags are not a misuse there
			}
			t.Run(mode.name+"/"+mis.name, func(t *testing.T) {
				code, stdout, stderr := vitTrain(t, append(mode.args, mis.args...)...)
				testutil.CheckMisuse(t, "vit-train", mis.want, code, stdout, stderr)
			})
		}
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
