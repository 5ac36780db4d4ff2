package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// sample is one metric's values over the runs of a set, in run order, with
// the seed each run used.
type sample struct {
	values []float64
	seeds  []uint64
}

// runSet is a set of run outputs: workload → metric → sample.
type runSet map[string]map[string]*sample

// readRuns collects every <workload>.json under dir (at any depth, in path
// order, so run i of two sets made by -aa pair up).
func readRuns(dir string) (runSet, []*result, error) {
	set := make(runSet)
	var all []*result
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".trace.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" || r.Metrics == nil {
			return nil // some other JSON file
		}
		all = append(all, &r)
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string]*sample)
		}
		for name, v := range r.Metrics {
			s := set[r.Workload][name]
			if s == nil {
				s = &sample{}
				set[r.Workload][name] = s
			}
			s.values = append(s.values, v.Value)
			s.seeds = append(s.seeds, r.Seed)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("no run outputs under %s", dir)
	}
	return set, all, nil
}

// Verdicts of -compare. The capitalised ones make it exit non-zero.
const (
	vUnchanged  = "unchanged"
	vImproved   = "improved"
	vUnresolved = "unresolved"
	vRegression = "REGRESSION"
	vExact      = "exact"
	vMismatch   = "MISMATCH"
	vInfo       = "-"
)

// minPairs is how many pairs of runs a claimed gain needs.
const minPairs = 10

// judge applies an end-to-end metric's bound and the claim rule to the
// base runs a and the candidate runs b (paired by index):
//
//   - REGRESSION: b's median is worse than a's by more than the bound
//     (bound × a's median, or the metric's absolute floor if larger).
//   - unresolved: not a regression, but a side's own inter-quartile
//     distance exceeds that slack, so "no change" cannot be told from noise.
//   - improved: at least ten pairs, b wins at least nine tenths of them
//     (ties count for neither side), and the medians differ by more than
//     a's inter-quartile distance.
//   - unchanged: otherwise.
func judge(d metricDef, a, b []float64) string {
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	sign := 1.0 // positive gap = b is worse
	if d.Better == "higher" {
		sign = -1
	}
	gap := sign * (medB - medA)
	slack := math.Max(d.Bound*math.Abs(medA), d.Floor)
	if gap > slack {
		return vRegression
	}
	if q3a-q1a > slack || q3b-q1b > slack {
		return vUnresolved
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if pairs >= minPairs && 10*wins >= 9*pairs && -gap > q3a-q1a {
		return vImproved
	}
	return vUnchanged
}

// judgeExact checks a metric that must repeat bit-exactly for a seed:
// every run of either set with the same seed must report the same value.
func judgeExact(a, b *sample) string {
	bySeed := make(map[uint64]float64)
	for _, s := range []*sample{a, b} {
		for i, v := range s.values {
			if old, ok := bySeed[s.seeds[i]]; ok && old != v {
				return vMismatch
			}
			bySeed[s.seeds[i]] = v
		}
	}
	return vExact
}

// compareDirs prints one row per (workload, metric) of two sets of run
// outputs and returns the process exit code: 1 on a regression or on a
// mismatch of a value that must repeat exactly.
func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	a, _, errA := readRuns(dirA)
	b, _, errB := readRuns(dirB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareSets(a, b, stdout)
}

func compareSets(a, b runSet, stdout io.Writer) int {
	bad := 0
	fmt.Fprintf(stdout, "%-17s %-36s %-9s %14s %14s %14s %14s %8s  %s\n",
		"workload", "metric", "unit", "base q1", "base median", "base q3", "median", "change", "verdict")
	for _, wd := range workloadDefs {
		ma, mb := a[wd.Name], b[wd.Name]
		if ma == nil || mb == nil {
			continue
		}
		for i, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				sa, sb := ma[d.Name], mb[d.Name]
				if sa == nil || sb == nil {
					continue
				}
				verdict := vInfo
				switch {
				case i == 0:
					verdict = judge(d, sa.values, sb.values)
				case exactMetric(d.Name):
					verdict = judgeExact(sa, sb)
				}
				if verdict == vRegression || verdict == vMismatch {
					bad++
				}
				q1, med, q3 := quartiles(sa.values)
				medB := median(sb.values)
				change := "n/a"
				if med != 0 {
					change = fmt.Sprintf("%+.2f%%", 100*(medB-med)/math.Abs(med))
				}
				fmt.Fprintf(stdout, "%-17s %-36s %-9s %14.6g %14.6g %14.6g %14.6g %8s  %s\n",
					wd.Name, d.Name, d.Unit, q1, med, q3, medB, change, verdict)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows regressed or broke exactness\n", bad)
		return 1
	}
	return 0
}

// summarize prints, as JSON, the median and quartiles of every end-to-end
// metric and the value of every exact metric over the run outputs under
// dir: the baseline file's content.
func summarize(dir string, stdout io.Writer) error {
	set, all, err := readRuns(dir)
	if err != nil {
		return err
	}
	type quart struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Runs   int     `json:"runs"`
		Unit   string  `json:"unit"`
	}
	type wl struct {
		EndToEnd map[string]quart   `json:"end_to_end"`
		Exact    map[string]float64 `json:"exact"`
	}
	doc := struct {
		NProc      int           `json:"nproc"`
		GoMaxProcs int           `json:"gomaxprocs"`
		GoVersion  string        `json:"go_version"`
		Seconds    float64       `json:"seconds"`
		Workloads  map[string]wl `json:"workloads"`
	}{all[0].NProc, all[0].GoMaxProcs, all[0].GoVersion, all[0].Seconds, make(map[string]wl)}
	for name, metrics := range set {
		w := wl{make(map[string]quart), make(map[string]float64)}
		for _, d := range endToEnd {
			if s := metrics[d.Name]; s != nil {
				q1, med, q3 := quartiles(s.values)
				w.EndToEnd[d.Name] = quart{med, q1, q3, len(s.values), d.Unit}
			}
		}
		for _, d := range perLayer {
			s := metrics[d.Name]
			if s == nil || !exactMetric(d.Name) {
				continue
			}
			// Exact metrics are exact per seed; the baseline records the
			// first run's.
			w.Exact[d.Name] = s.values[0]
		}
		doc.Workloads[name] = w
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
