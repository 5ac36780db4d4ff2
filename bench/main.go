// Command bench is the repository's one benchmark: five workloads, four
// host-clock end-to-end metrics from an untraced pass, and a traced pass
// that attributes each workload to the layers underneath. README.md in
// this directory explains what every number means and how to compare two
// commits; BENCHMARK.json at the repository root is the contract the
// numbers are reported under.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run in this process, or \"all\" to run the five in turn as child processes")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Float64("seconds", runSeconds, "host seconds the untraced pass measures for")
		trace   = fs.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; both: every metric")
		out     = fs.String("out", "", "directory for <workload>.json (and <workload>.trace.json when tracing)")
		compare = fs.Bool("compare", false, "compare two sets of run outputs: bench -compare A_DIR B_DIR")
		aa      = fs.Int("aa", 0, "run the same code N times per side, alternating, and compare the halves (needs -out)")
		summary = fs.String("summary", "", "print median and quartiles of every end-to-end metric of the run outputs under DIR as JSON")
		schema  = fs.Bool("schema", false, "print BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	switch {
	case *schema:
		b, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		stdout.Write(b)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two directories"))
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *summary != "":
		if err := summarize(*summary, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *aa > 0:
		if *out == "" {
			return fail(errors.New("-aa needs -out"))
		}
		if err := runAA(*aa, *seed, *seconds, *out, stderr); err != nil {
			return fail(err)
		}
		return compareDirs(filepath.Join(*out, "A"), filepath.Join(*out, "B"), stdout, stderr)
	case *name == "all":
		if err := runAll(*seed, *seconds, *trace, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	case *name == "":
		fs.Usage()
		return 2
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		return fail(fmt.Errorf("-trace %q: want 0, 1 or both", *trace))
	}
	res, tr, err := runWorkload(runConfig{name: *name, seed: *seed, seconds: *seconds, trace: *trace, scale: 1})
	if err != nil {
		return fail(err)
	}
	res.print(stdout)
	if *out != "" {
		if err := res.write(*out, tr); err != nil {
			return fail(err)
		}
	}
	// The contract: the last line of standard output is the result.
	line, err := json.Marshal(res.contract())
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runConfig selects one workload run.
type runConfig struct {
	name    string
	seed    uint64
	seconds float64
	trace   string // "0", "1" or "both"
	scale   int    // divides the frozen op counts; 1 outside tests
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the contract's four keys plus what a reader
// needs to place the numbers.
type result struct {
	Workload   string                 `json:"workload"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      string                 `json:"trace"`
	NProc      int                    `json:"nproc"`
	GoMaxProcs int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Refused    int64                  `json:"refused"`
	Notes      []string               `json:"notes,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	// ChunkOpsPerS is the untraced pass chunk by chunk, for judging whether
	// a run's chunk times were unimodal.
	ChunkOpsPerS []float64 `json:"chunk_ops_per_s"`
}

// contract is the object the benchmark contract wants on the last line.
func (r *result) contract() map[string]any {
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics}
}

// print lists every metric by name with its unit, end-to-end first.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  %.0f s  trace %s  GOMAXPROCS %d of %d  %s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.GoMaxProcs, r.NProc, r.GoVersion)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-36s %16.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  refused %d  correct %v\n", r.Attempted, r.Failed, r.Refused, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// write stores the run as <dir>/<workload>.json and its spans as
// <dir>/<workload>.trace.json.
func (r *result) write(dir string, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, r.Workload+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.writeChrome(filepath.Join(dir, r.Workload+".trace.json"))
}

// pass is the timing of one run of chunks.
type pass struct {
	chunkSec  []float64 // host seconds per chunk
	opsPerSec []float64 // per chunk
	speed     float64   // machine speed measured between the chunks
	ops       int64
	refused   int64
	failed    int64
	simPerOp  float64
	simVaries bool
	allocs    uint64 // runtime mallocs over the whole pass
}

// runPass runs chunks of the workload until the budget is spent (at least
// minChunks of them) and times each one.
func runPass(w workload, tr *tracer, cal *calibrator, budget time.Duration, minChunks int) (pass, error) {
	var p pass
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(p.chunkSec) < minChunks || time.Since(start) < budget {
		t0 := time.Now()
		st, err := w.chunk(tr)
		sec := time.Since(t0).Seconds()
		if err != nil {
			return p, err
		}
		if st.ops <= 0 {
			return p, errors.New("chunk ran no operations")
		}
		cal.sample(time.Duration(sec * float64(time.Second)))
		p.chunkSec = append(p.chunkSec, sec)
		p.opsPerSec = append(p.opsPerSec, float64(st.ops)/sec)
		p.ops += int64(st.ops)
		p.refused += int64(st.refused)
		p.failed += int64(st.failed)
		sim := st.sim / float64(st.ops)
		if len(p.chunkSec) > 1 && sim != p.simPerOp {
			p.simVaries = true
		}
		p.simPerOp = sim
	}
	runtime.ReadMemStats(&m1)
	p.allocs = m1.Mallocs - m0.Mallocs
	p.speed = cal.speed()
	return p, nil
}

// opSeconds is the pass's median host seconds per operation.
func (p *pass) opSeconds() float64 { return 1 / median(p.opsPerSec) }

// repeatSetup builds and sets up the workload several times and returns
// the last one built, the median host seconds of one set-up, and the
// machine speed measured between the repeats. Small set-ups repeat more
// often (for a tenth of the run, up to 200 times), so the median is of at
// least five — three when one set-up takes over a twentieth of the run; a
// run of under a second (the tests) sets up once. Each repeat starts from
// a collected heap with the previous build dropped, so peak memory stays
// that of one build.
func repeatSetup(cfg runConfig, cal *calibrator) (workload, float64, float64, error) {
	var times []float64
	start := time.Now()
	for {
		w, err := newWorkload(cfg.name, cfg.seed, cfg.scale)
		if err != nil {
			return nil, 0, 0, err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, 0, 0, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		times = append(times, took.Seconds())
		cal.sample(took)
		spent := time.Since(start).Seconds()
		if n := len(times); cfg.seconds < 1 || n >= 200 || (n >= 5 && spent >= 0.1*cfg.seconds) || (n >= 3 && spent >= 0.25*cfg.seconds) {
			return w, median(times), cal.speed(), nil
		}
		w = nil
		runtime.GC()
	}
}

// runWorkload runs one workload in this process.
func runWorkload(cfg runConfig) (*result, *tracer, error) {
	nproc := runtime.NumCPU()
	procs := min(nproc, 4)
	runtime.GOMAXPROCS(procs)
	res := &result{
		Workload: cfg.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: nproc, GoMaxProcs: procs, GoVersion: runtime.Version(),
		Metrics: make(map[string]metricValue),
	}
	units := make(map[string]string)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			units[d.Name] = d.Unit
		}
	}
	var putErr error
	put := func(name string, v float64) {
		unit, ok := units[name]
		if !ok && putErr == nil {
			putErr = fmt.Errorf("metric %q is not declared in schema.go", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}

	cal := newCalibrator()
	defer cal.stop()
	w, setupSec, setupSpeed, err := repeatSetup(cfg, cal)
	if err != nil {
		return nil, nil, err
	}

	// A run that only feeds the per-layer metrics still needs an untraced
	// pass, to price the tracing and to give probes an op to be a share of.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	untracedBudget, tracedBudget := budget, 2*budget/5
	if cfg.trace == "1" {
		untracedBudget = 3 * budget / 10
	}
	untraced, err := runPass(w, nil, cal, untracedBudget, 3)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced pass: %w", err)
	}
	res.Attempted, res.Failed, res.Refused = untraced.ops, untraced.failed, untraced.refused
	res.ChunkOpsPerS = untraced.opsPerSec
	if untraced.simVaries {
		res.Notes = append(res.Notes, "simulated seconds per op differed between chunks of the untraced pass")
		res.Failed++
	}

	// The checks build reference models; start them from a collected heap
	// so peak memory does not depend on where the collector happened to be.
	runtime.GC()
	bad, err := w.check()
	if err != nil {
		return nil, nil, fmt.Errorf("checking outputs: %w", err)
	}
	res.Failed += int64(len(bad))
	res.Notes = append(res.Notes, bad...)

	if cfg.trace != "1" {
		// Host times and rates are reported at the reference machine speed
		// (calib.go); the raw figures are per-layer driver metrics.
		put("setup_s", setupSec*setupSpeed)
		put("wall_ops_per_s", median(untraced.opsPerSec)/untraced.speed)
		put("allocs_per_op", float64(untraced.allocs)/float64(untraced.ops))
		// Read before the traced pass, so the peak is that of set-up, the
		// timed ops and the checks whichever passes the run makes.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		put("host_peak_rss_mb", rss)
	}
	var tr *tracer
	if cfg.trace != "0" {
		tr = newTracer()
		traced, err := runPass(w, tr, cal, tracedBudget, 2)
		if err != nil {
			return nil, nil, fmt.Errorf("traced pass: %w", err)
		}
		res.Attempted += traced.ops
		res.Refused += traced.refused
		res.Failed += traced.failed
		// The benchmark's loop must be the product's loop: the same schedule,
		// so the same simulated seconds per op to the last bit.
		if traced.simVaries || traced.simPerOp != untraced.simPerOp {
			res.Failed++
			res.Notes = append(res.Notes, fmt.Sprintf("the traced pass took %v simulated seconds per op, the untraced pass %v: the benchmark's loop no longer replays the product's", traced.simPerOp, untraced.simPerOp))
		}
		for _, d := range perLayer {
			put(d.Name, 0) // a metric that does not apply to this workload reads 0
		}
		root, err := checkoutRoot()
		if err != nil {
			return nil, nil, err
		}
		lc := layerCtx{
			tr:     tr,
			opWall: untraced.opSeconds(),
			budget: time.Duration(min(0.15, max(0.005, 0.01*cfg.seconds)) * float64(time.Second)),
			root:   root,
		}
		if err := w.layers(lc, put); err != nil {
			return nil, nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		put("sim_s_per_op", untraced.simPerOp)
		put("failed_frac", float64(res.Failed+res.Refused)/float64(res.Attempted))
		put("driver.ops", float64(untraced.ops))
		put("driver.chunks", float64(len(untraced.chunkSec)))
		put("driver.chunk_cv", cv(untraced.chunkSec))
		perOp := tr.perOp()
		tail := tailPercentile(len(perOp), 0.95)
		put("driver.wall_us_per_op_p50", median(perOp)/1e3)
		put("driver.wall_us_per_op_p95", percentile(perOp, tail)/1e3)
		put("driver.wall_tail_pct", 100*tail)
		put("driver.trace_overhead_frac", traced.opSeconds()*traced.speed/(untraced.opSeconds()*untraced.speed)-1)
		put("driver.machine_speed", untraced.speed)
		put("driver.raw_wall_ops_per_s", median(untraced.opsPerSec))
		put("driver.raw_setup_s", setupSec)
		put("driver.gomaxprocs", float64(procs))
	}
	res.Correct = res.Failed == 0
	if putErr != nil {
		return nil, nil, putErr
	}
	return res, tr, nil
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// checkoutRoot is the directory holding BENCHMARK.json: the working
// directory or one of its parents (`go run -C bench .` starts in bench/).
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// runChild runs one workload in a child process of this same binary, so
// set-up time and peak memory are the workload's own, and returns its
// result.
func runChild(name string, seed uint64, seconds float64, trace, out string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace}
	if out != "" {
		args = append(args, "-out", out)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	var c struct {
		Correct   bool
		Attempted int64
		Failed    int64
		Metrics   map[string]metricValue
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return nil, fmt.Errorf("workload %s: last line of output: %w", name, err)
	}
	return &result{Workload: name, Seed: seed, Correct: c.Correct, Attempted: c.Attempted, Failed: c.Failed, Metrics: c.Metrics}, nil
}

// runAll runs the five workloads in turn, each in its own process, and
// prints one table: a row per metric, a column per workload.
func runAll(seed uint64, seconds float64, trace, out string, stdout, stderr io.Writer) error {
	var results []*result
	for _, wd := range workloadDefs {
		fmt.Fprintf(stderr, "bench: running %s\n", wd.Name)
		r, err := runChild(wd.Name, seed, seconds, trace, out, stderr)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Fprintf(stdout, "%-36s %-9s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(stdout, " %16s", r.Workload)
	}
	fmt.Fprintln(stdout)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if _, ok := results[0].Metrics[d.Name]; !ok {
				continue
			}
			fmt.Fprintf(stdout, "%-36s %-9s", d.Name, d.Unit)
			for _, r := range results {
				fmt.Fprintf(stdout, " %16.6g", r.Metrics[d.Name].Value)
			}
			fmt.Fprintln(stdout)
		}
	}
	ok := true
	fmt.Fprintf(stdout, "%-36s %-9s", "failed / attempted", "count")
	for _, r := range results {
		fmt.Fprintf(stdout, " %16s", fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		ok = ok && r.Correct
	}
	fmt.Fprintln(stdout)
	if !ok {
		return errors.New("a workload's outputs failed their checks")
	}
	return nil
}

// runAA runs every workload n times into <out>/A/runNN and n times into
// <out>/B/runNN from the same binary, alternating which side goes first,
// each pair on a fresh seed.
func runAA(n int, seed uint64, seconds float64, out string, stderr io.Writer) error {
	for i := 0; i < n; i++ {
		sides := []string{"A", "B"}
		if i%2 == 1 {
			sides = []string{"B", "A"}
		}
		for _, side := range sides {
			dir := filepath.Join(out, side, fmt.Sprintf("run%02d", i))
			for _, wd := range workloadDefs {
				fmt.Fprintf(stderr, "bench: %s %s\n", dir, wd.Name)
				if _, err := runChild(wd.Name, seed+uint64(i), seconds, "both", dir, io.Discard); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
