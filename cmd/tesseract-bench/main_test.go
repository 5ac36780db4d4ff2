package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

const asCLI = "TESSERACT_BENCH_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestCheckTable: a typo'd -table is one actionable error, not a silent run
// of nothing.
func TestCheckTable(t *testing.T) {
	for _, ok := range []string{"", "1", "2"} {
		if err := checkTable(ok); err != nil {
			t.Errorf("checkTable(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"3", "0", "12", "one", " 1"} {
		err := checkTable(bad)
		if err == nil {
			t.Errorf("checkTable(%q) must error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "valid: 1, 2") {
			t.Errorf("checkTable(%q) error %q does not name the valid values", bad, err)
		}
	}
}

// TestMisuseIsOneLine: a flag value no row can honour exits 1 with a single
// actionable line on stderr and nothing on stdout. -layers -1 used to print
// every row as "0.0000 0.0000 +Inf +Inf" and exit 0; -seqlen -1 died inside
// a worker on negative tensor dimensions.
func TestMisuseIsOneLine(t *testing.T) {
	for _, mis := range []struct {
		name string
		args []string
		want string // substring of the message
	}{
		{"unknown table", []string{"-table", "3"}, "valid: 1, 2"},
		{"negative layers", []string{"-layers", "-1"}, "layers -1"},
		{"negative seqlen", []string{"-seqlen", "-1"}, "sequence length -1"},
		{"negative layers, one table", []string{"-table", "1", "-layers", "-1"}, "layers -1"},
		{"negative seqlen, planner study", []string{"-planner", "-seqlen", "-1"}, "sequence length -1"},
		{"negative layers, ablation", []string{"-ablation", "-layers", "-3"}, "layers -3"},
		// The serving table takes no options and used to print in full
		// before the serving planner, next in line, rejected them.
		{"negative layers, serving", []string{"-serving", "-layers", "-1"}, "layers -1"},
	} {
		t.Run(mis.name, func(t *testing.T) {
			code, stdout, stderr := testutil.RunCLI(t, asCLI, mis.args...)
			testutil.CheckMisuse(t, "tesseract-bench", mis.want, code, stdout, stderr)
		})
	}
}

// TestValidFlagsStillRun: the checks do not reject what worked.
func TestValidFlagsStillRun(t *testing.T) {
	code, stdout, stderr := testutil.RunCLI(t, asCLI, "-table", "1", "-seqlen", "16", "-layers", "2", "-speedups")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"Table 1", "[4,4,4]", "Derived §4.1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "Inf") || strings.Contains(stdout, "NaN") {
		t.Errorf("a valid run printed a non-finite number:\n%s", stdout)
	}
}
