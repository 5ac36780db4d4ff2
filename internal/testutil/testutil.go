// Package testutil provides shared helpers for the repository's tests:
// running simulated clusters, comparing matrices, collecting per-rank
// results deterministically, holding a family's modules to their nn twins
// (Parity), and driving a command's real main() and holding its output to
// a golden file.
package testutil

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Run executes fn on a fresh cluster of the given size and fails the test on
// any worker error. It returns the cluster for clock/stats inspection.
func Run(t *testing.T, worldSize int, fn func(w *dist.Worker) error) *dist.Cluster {
	t.Helper()
	c := dist.New(dist.Config{WorldSize: worldSize})
	if err := c.Run(fn); err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
	return c
}

// Collector gathers one result per rank, safely across worker goroutines.
type Collector struct {
	mu   sync.Mutex
	vals map[int]*tensor.Matrix
}

// NewCollector creates an empty collector.
func NewCollector() *Collector { return &Collector{vals: make(map[int]*tensor.Matrix)} }

// Put stores rank's result.
func (c *Collector) Put(rank int, m *tensor.Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals[rank] = m
}

// Get returns rank's result (nil if absent).
func (c *Collector) Get(rank int) *tensor.Matrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vals[rank]
}

// CheckClose fails the test unless got and want agree elementwise within tol.
func CheckClose(t *testing.T, name string, got, want *tensor.Matrix, tol float64) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil matrix (got=%v want=%v)", name, got != nil, want != nil)
	}
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !got.AllClose(want, tol) {
		t.Fatalf("%s: max abs diff %g exceeds tol %g", name, got.MaxAbsDiff(want), tol)
	}
}

// Scalars gathers one float per rank.
type Scalars struct {
	mu   sync.Mutex
	vals map[int]float64
}

// NewScalars creates an empty scalar collector.
func NewScalars() *Scalars { return &Scalars{vals: make(map[int]float64)} }

// Put stores rank's value.
func (s *Scalars) Put(rank int, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.vals[rank] = v
}

// Get returns rank's value.
func (s *Scalars) Get(rank int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.vals[rank]
}

// CLIMain is the TestMain of a command's tests: with the marker set in the
// environment the process is the command itself — main() with the test
// binary's arguments, flag parsing, os.Exit and all — otherwise it runs the
// tests, which reach the command through RunCLI.
func CLIMain(m *testing.M, marker string, main func()) {
	if os.Getenv(marker) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// RunCLI re-executes the test binary as the command (see CLIMain) and
// returns its exit code and both streams.
func RunCLI(t *testing.T, marker string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), marker+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("running %v: %v", args, err)
	}
	return code, out.String(), errb.String()
}

// CheckMisuse asserts the shape of a rejected invocation: exit code 1,
// nothing on stdout, and on stderr exactly one line that starts with the
// program's name, contains want, and is not a goroutine dump.
func CheckMisuse(t *testing.T, prog, want string, code int, stdout, stderr string) {
	t.Helper()
	if code != 1 {
		t.Errorf("exit code %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("stdout before the error: %q", stdout)
	}
	if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, prog+": ") ||
		!strings.Contains(stderr, want) || strings.Contains(stderr, "goroutine") {
		t.Errorf("stderr is not one actionable line naming %q: %q", want, stderr)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// Golden runs the command with args (see RunCLI), requires exit 0, and holds
// its output to testdata/<name>.golden byte for byte: a changed number is a
// diff to read, not prose to trust. The output is stdout, and stderr must be
// empty; a command that reports on stderr passes withStderr, and the file
// holds both streams, stderr after a "--- stderr" line.
// `go test ./cmd/<command> -update` rewrites the files.
func Golden(t *testing.T, marker, name string, withStderr bool, args ...string) {
	t.Helper()
	code, stdout, stderr := RunCLI(t, marker, args...)
	if code != 0 || (stderr != "" && !withStderr) {
		t.Fatalf("%v: exit %d\nstderr: %s", args, code, stderr)
	}
	got := stdout
	if withStderr {
		got += "--- stderr\n" + stderr
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%v: output differs from %s (-update rewrites it)\n--- got\n%s--- want\n%s", args, path, got, want)
	}
}

// Canonical assembles one collect's per-rank checkpoints into the canonical
// tensors a replica held: slot i's value, first and second moment, placed
// from every checkpoint's own primary pieces. It fails the test unless the
// primary pieces cover every element exactly once and every other piece —
// a replica's copy or a buddy's — holds the same bits.
func Canonical(t testing.TB, cks []*parallel.Checkpoint) [][3]*tensor.Matrix {
	t.Helper()
	out := make([][3]*tensor.Matrix, len(cks[0].Slots))
	for i, e := range cks[0].Slots {
		covered := make([]int, e.Rows*e.Cols)
		for k := range out[i] {
			out[i][k] = tensor.New(e.Rows, e.Cols)
		}
		for _, ck := range cks {
			e := ck.Slots[i]
			if !e.Primary {
				continue
			}
			for _, p := range e.Pieces[:e.Own] {
				for k, src := range [...]*tensor.Matrix{e.Value, e.M, e.V} {
					for r := range p.Rows {
						copy(out[i][k].Row(p.Row + r)[p.Col:p.Col+p.Cols], src.Data[p.Off+r*p.Cols:p.Off+(r+1)*p.Cols])
					}
				}
				for r := range p.Rows {
					for c := range p.Cols {
						covered[(p.Row+r)*e.Cols+p.Col+c]++
					}
				}
			}
		}
		for j, n := range covered {
			if n != 1 {
				t.Fatalf("slot %d element %d is in %d primary pieces, want 1", i, j, n)
			}
		}
		for _, ck := range cks {
			e := ck.Slots[i]
			for _, p := range e.Pieces {
				for k, src := range [...]*tensor.Matrix{e.Value, e.M, e.V} {
					for r := range p.Rows {
						for c := range p.Cols {
							got, want := src.Data[p.Off+r*p.Cols+c], out[i][k].At(p.Row+r, p.Col+c)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("rank %d slot %d tensor %d (%d, %d): a piece holds %x, the primary %x",
									ck.Rank, i, k, p.Row+r, p.Col+c, math.Float64bits(got), math.Float64bits(want))
							}
						}
					}
				}
			}
		}
	}
	return out
}
