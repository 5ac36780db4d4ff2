package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

const asCLI = "TESSERACT_PLAN_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestGolden holds each invocation's stdout to its file under testdata, byte
// for byte (testutil.Golden): the presets, a node-misaligned search whose
// [3,3,d] candidates replay on the full cluster, and a memory budget between
// what seqpar [4] holds (1,082,441,728 B) and what tesseract [2,2] holds
// (1,392,934,912 B), which leaves seqpar alone.
// `go test ./cmd/tesseract-plan -update` rewrites the files.
func TestGolden(t *testing.T) {
	for _, golden := range []struct {
		name string // testdata/<name>.golden
		args []string
	}{
		{"table1", []string{"-model", "table1"}},
		{"table2", []string{"-model", "table2"}},
		{"vit-base", []string{"-model", "vit-base"}},
		{"vit-large", []string{"-model", "vit-large"}},
		{"misaligned36", []string{"-ranks", "36", "-batch", "36", "-seq", "64", "-hidden", "1728", "-heads", "36", "-top", "40"}},
		{"exact4-mem", []string{"-exact", "-ranks", "4", "-batch", "16", "-seq", "512", "-hidden", "1024", "-heads", "16", "-layers", "2", "-mem", "1150MiB"}},
		// -validate compares plan.Price with plan.Price, so its 0.0 % is by
		// construction; what it checks is that every candidate builds and
		// replays.
		{"vit-base-validate", []string{"-model", "vit-base", "-validate"}},
		{"misaligned36-validate", []string{"-ranks", "36", "-batch", "36", "-seq", "64", "-hidden", "1728", "-heads", "36", "-top", "40", "-validate", "-validate-top", "40"}},
		// The validation replay prices on the planned machine: measured at
		// four GPUs a node, the eight-GPU plans would read off.
		{"gpn8-validate", []string{"-gpus-per-node", "8", "-validate"}},
	} {
		t.Run(golden.name, func(t *testing.T) {
			testutil.Golden(t, asCLI, golden.name, false, golden.args...)
		})
	}
}

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
		{"zero top", []string{"-top", "0"}, "-top 0 must be at least 1"},
		{"zero validate-top", []string{"-validate", "-validate-top", "0"}, "-validate-top 0 must be at least 1"},
		{"negative ranks", []string{"-ranks", "-1"}, "rank budget"},
		{"negative node size", []string{"-gpus-per-node", "-2"}, "GPUsPerNode"},
		{"unknown model", []string{"-model", "gpt"}, "unknown -model"},
		{"hidden not divisible by heads", []string{"-hidden", "100", "-heads", "3"}, "not divisible"},
		{"unparsable memory", []string{"-mem", "lots"}, "lots"},
		{"zero memory", []string{"-mem", "0"}, "omit -mem"},
		{"zero memory with a unit", []string{"-mem", "0GiB"}, "-mem 0GiB is below 1 byte"},
		{"memory truncating to zero bytes", []string{"-mem", "0.5B"}, "-mem 0.5B is below 1 byte"},
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

// TestTitleNamesPresetWhileItSuppliesAField: the title names the -model
// preset while the preset still supplies a workload field, and reads
// "custom workload" once -batch, -seq, -hidden and -heads have replaced
// them all.
func TestTitleNamesPresetWhileItSuppliesAField(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-batch", "8", "-seq", "16", "-hidden", "64"}, "Ranked layouts for table1 (batch 8, seq 16, hidden 64, heads 64,"},
		{[]string{"-model", "vit-base", "-batch", "8", "-seq", "16", "-hidden", "64", "-heads", "4"}, "Ranked layouts for custom workload (batch 8, seq 16, hidden 64, heads 4,"},
	} {
		code, stdout, stderr := testutil.RunCLI(t, asCLI, append([]string{"-ranks", "4", "-top", "1"}, tc.args...)...)
		if code != 0 || stderr != "" {
			t.Fatalf("%v: exit %d\nstderr: %s", tc.args, code, stderr)
		}
		if !strings.HasPrefix(stdout, tc.want) {
			t.Errorf("%v: title\n%s\nwant it to begin %q", tc.args, strings.SplitN(stdout, "\n", 2)[0], tc.want)
		}
	}
}
