// Package testutil provides shared helpers for the repository's tests:
// running simulated clusters, comparing matrices, collecting per-rank
// results deterministically, and driving a command's real main().
package testutil

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"

	"repro/internal/dist"
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

// RunCluster executes fn on an existing cluster and fails the test on error.
func RunCluster(t *testing.T, c *dist.Cluster, fn func(w *dist.Worker) error) {
	t.Helper()
	if err := c.Run(fn); err != nil {
		t.Fatalf("cluster run failed: %v", err)
	}
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

// Len returns the number of stored results.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
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
