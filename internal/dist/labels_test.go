package dist

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
)

// goroutineLabels reads the goroutine profile and returns the label set of
// every goroutine record, and that of the goroutine taking the profile.
func goroutineLabels() (all []string, self string, err error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return nil, "", err
	}
	// A record is a count line, an optional "# labels: {…}" line and the
	// stack, one "#\t" line per frame; a blank line ends it.
	for _, rec := range strings.Split(buf.String(), "\n\n") {
		var labels string
		for _, line := range strings.Split(rec, "\n") {
			if l, ok := strings.CutPrefix(line, "# labels: "); ok {
				labels = l
			}
		}
		all = append(all, labels)
		if strings.Contains(rec, "runtime/pprof.(*Profile).WriteTo") {
			self = labels
		}
	}
	return all, self, nil
}

// TestRankGoroutinesCarryProfilerLabels: a full cluster's rank goroutines
// carry the profiler labels rank and cluster — every rank its own, one
// cluster number for all of them, another for a second cluster — so a CPU
// profile splits by rank; a solo cluster runs on the caller's goroutine and
// leaves its labels as they were.
func TestRankGoroutinesCarryProfilerLabels(t *testing.T) {
	const n = 4
	rankLabel := regexp.MustCompile(`"rank":"(\d+)"`)
	clusterLabel := regexp.MustCompile(`"cluster":"(\d+)"`)
	var ids []string
	for range 2 {
		c := New(Config{WorldSize: n})
		world := c.WorldGroup()
		var all []string
		var self string
		if err := c.Run(func(w *Worker) error {
			world.Barrier(w)
			var err error
			if w.Rank() == 0 {
				all, self, err = goroutineLabels()
			}
			world.Barrier(w)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if m := rankLabel.FindStringSubmatch(self); m == nil || m[1] != "0" {
			t.Fatalf("rank 0's goroutine is labelled %q, want rank 0", self)
		}
		id := clusterLabel.FindStringSubmatch(self)
		if id == nil {
			t.Fatalf("rank 0's goroutine is labelled %q, with no cluster", self)
		}
		ids = append(ids, id[1])
		seen := map[string]bool{}
		for _, labels := range all {
			if m := clusterLabel.FindStringSubmatch(labels); m != nil && m[1] == id[1] {
				if r := rankLabel.FindStringSubmatch(labels); r != nil {
					seen[r[1]] = true
				}
			}
		}
		for r := range n {
			if !seen[fmt.Sprint(r)] {
				t.Errorf("cluster %s: no goroutine labelled rank %d (labels seen: %q)", id[1], r, all)
			}
		}
	}
	if ids[0] == ids[1] {
		t.Errorf("two clusters share the cluster label %s", ids[0])
	}

	c := NewSolo(Config{WorldSize: n})
	var self string
	pprof.Do(context.Background(), pprof.Labels("caller", "solo"), func(context.Context) {
		if err := c.Run(func(w *Worker) error {
			var err error
			_, self, err = goroutineLabels()
			return err
		}); err != nil {
			t.Fatal(err)
		}
	})
	if self != `{"caller":"solo"}` {
		t.Errorf("a solo Run's goroutine is labelled %s, want the caller's own {\"caller\":\"solo\"}", self)
	}
}
