package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

const asCLI = "TESSERACT_PLAN_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestMisuseIsOneLine: a value no plan can honour exits 1 with a single
// actionable line on stderr and nothing on stdout. The negative counts used
// to be ignored in silence — the preset was planned instead, -top -1 printed
// everything and -validate-top -3 reported an error "across top 0".
func TestMisuseIsOneLine(t *testing.T) {
	for _, mis := range []struct {
		name string
		args []string
		want string // substring of the message
	}{
		{"negative batch", []string{"-batch", "-4"}, "-batch -4"},
		{"negative seq", []string{"-seq", "-1"}, "-seq -1"},
		{"negative hidden", []string{"-hidden", "-8"}, "-hidden -8"},
		{"negative heads", []string{"-heads", "-2"}, "-heads -2"},
		{"negative layers", []string{"-layers", "-2"}, "-layers -2"},
		{"negative top", []string{"-top", "-1"}, "-top -1"},
		{"negative validate-top", []string{"-validate", "-validate-top", "-3"}, "-validate-top -3"},
		{"negative ranks", []string{"-ranks", "-1"}, "rank budget"},
		{"negative node size", []string{"-gpus-per-node", "-2"}, "GPUsPerNode"},
		{"unknown model", []string{"-model", "gpt"}, "unknown -model"},
		{"hidden not divisible by heads", []string{"-hidden", "100", "-heads", "3"}, "not divisible"},
		{"unparsable memory", []string{"-mem", "lots"}, "lots"},
	} {
		t.Run(mis.name, func(t *testing.T) {
			code, stdout, stderr := testutil.RunCLI(t, asCLI, mis.args...)
			testutil.CheckMisuse(t, "tesseract-plan", mis.want, code, stdout, stderr)
		})
	}
}

// TestValidFlagsStillPlan: the checks do not reject what worked — overrides
// apply, the ranking prints -top rows and the replay validates -validate-top.
func TestValidFlagsStillPlan(t *testing.T) {
	code, stdout, stderr := testutil.RunCLI(t, asCLI, "-ranks", "8", "-batch", "8", "-seq", "16", "-hidden", "64", "-heads", "4",
		"-top", "2", "-validate", "-validate-top", "1")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"batch 8, seq 16, hidden 64, heads 4, layers 1", "within 8 ranks", "max step-time error across top 1:"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if !strings.Contains(stdout, "\n   2 ") || strings.Contains(stdout, "\n   3 ") {
		t.Errorf("-top 2 must print exactly two ranked rows:\n%s", stdout)
	}
}
