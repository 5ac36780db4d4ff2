package main

import (
	"strings"
	"testing"

	"repro/internal/testutil"
)

const asCLI = "TESSERACT_BENCH_TEST_AS_CLI"

func TestMain(m *testing.M) { testutil.CLIMain(m, asCLI, main) }

// TestGolden holds each invocation's stdout to its file under testdata, byte
// for byte (testutil.Golden). `go test ./cmd/tesseract-bench -update`
// rewrites the files.
func TestGolden(t *testing.T) {
	for _, golden := range []struct {
		name string // testdata/<name>.golden
		args []string
	}{
		{"claims", []string{"-claims"}},
		{"memory", []string{"-memory"}},
		{"planner", []string{"-planner"}},
		{"ablation", []string{"-ablation"}},
		{"table1-speedups", []string{"-table", "1", "-speedups"}},
		{"table2-speedups", []string{"-table", "2", "-speedups"}},
		{"elastic", []string{"-elastic"}},
		{"straggler", []string{"-straggler"}},
		{"overlap", []string{"-overlap"}},
		{"serving", []string{"-serving"}},
		{"table1-no-recompute-layers2", []string{"-table", "1", "-no-recompute", "-layers", "2"}},
		{"table2-seqlen128", []string{"-seqlen", "128", "-table", "2"}},
	} {
		t.Run(golden.name, func(t *testing.T) {
			testutil.Golden(t, asCLI, golden.name, false, golden.args...)
		})
	}
}

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
		{"negative layers", []string{"-layers", "-1"}, "-layers -1 must be at least 1"},
		{"negative seqlen", []string{"-seqlen", "-1"}, "-seqlen -1 must be at least 1"},
		{"negative layers, one table", []string{"-table", "1", "-layers", "-1"}, "layers -1"},
		{"negative seqlen, planner study", []string{"-planner", "-seqlen", "-1"}, "-seqlen -1"},
		{"negative layers, ablation", []string{"-ablation", "-layers", "-3"}, "layers -3"},
		// The serving table takes no options and used to print in full
		// before the serving planner, next in line, rejected them.
		{"negative layers, serving", []string{"-serving", "-layers", "-1"}, "layers -1"},
		// Zero used to select the default in silence.
		{"zero seqlen", []string{"-table", "1", "-seqlen", "0"}, "-seqlen 0 must be at least 1"},
		{"zero layers", []string{"-table", "1", "-layers", "0"}, "-layers 0 must be at least 1"},
		{"zero layers, transmission study", []string{"-claims", "-layers", "0"}, "-layers 0"},
		// A row whose activation does not split over its layout is refused
		// before its cluster is built; it used to exit with a worker panic.
		{"seqlen 3, table 1", []string{"-seqlen", "3", "-table", "1"}, "row Optimus [8,8]: parallel: optimus [8,8] cannot split 36 activation rows"},
		{"seqlen 3, overlap", []string{"-seqlen", "3", "-overlap"}, "row Tesseract [4,4,2]: parallel: tesseract [4,4,2] cannot split 36 activation rows"},
	} {
		t.Run(mis.name, func(t *testing.T) {
			code, stdout, stderr := testutil.RunCLI(t, asCLI, mis.args...)
			testutil.CheckMisuse(t, "tesseract-bench", mis.want, code, stdout, stderr)
			if strings.Contains(stderr, "panicked") {
				t.Errorf("a flag-reachable misuse is a recovered panic: %q", stderr)
			}
		})
	}
}

// TestValidFlagsStillRun: the checks do not reject what worked.
func TestValidFlagsStillRun(t *testing.T) {
	code, stdout, stderr := testutil.RunCLI(t, asCLI, "-table", "1", "-seqlen", "16", "-layers", "2", "-speedups")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"Table 1", "[4,4,4]", "Reproduction scorecard", "§4.1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "Inf") || strings.Contains(stdout, "NaN") {
		t.Errorf("a valid run printed a non-finite number:\n%s", stdout)
	}
}

// TestSpeedupsAloneRunsBothTables: -speedups without -table prints both
// tables and the scorecard over both, and no other study: the scorecard's
// §1 and Eq. 7-10 lines come with -claims and -memory. It used to print
// nothing and exit 0.
func TestSpeedupsAloneRunsBothTables(t *testing.T) {
	code, stdout, stderr := testutil.RunCLI(t, asCLI, "-speedups", "-seqlen", "16")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, want := range []string{"Table 1", "Table 2", "Reproduction scorecard", "both tables", "§4.1", "§4.2"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	for _, study := range []string{"Auto-parallelism planner", "Communication of one", "Per-GPU memory", "Depth ablation", "Communication overlap", "Cross-family parity"} {
		if strings.Contains(stdout, study) {
			t.Errorf("stdout has %q, from a study -speedups did not ask for:\n%s", study, stdout)
		}
	}
}
