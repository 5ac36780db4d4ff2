package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Config describes a simulated cluster.
type Config struct {
	// WorldSize is the number of ranks (required, ≥ 1).
	WorldSize int
	// Machine is the hardware the cluster simulates; the zero value is
	// Meluxina (MeluxinaModel, four GPUs per node).
	Machine Machine
	// Faults is an optional gray-failure schedule charged to the simulated
	// clock (see FaultPlan). Nil or empty means a pristine cluster; an empty
	// plan is treated exactly like nil, so unperturbed runs stay bitwise
	// identical. New panics on an invalid plan.
	Faults *FaultPlan
}

// ErrRunActive is returned by Run when another Run is still active on the
// same cluster.
var ErrRunActive = errors.New("dist: Run called while another Run is active on this cluster (nested from a worker, or concurrent)")

// abortSignal is the panic value collectives raise to unwind a worker whose
// cluster has aborted; Run's wrapper swallows it.
type abortSignal struct{}

// Failure is the structured abort cause: which rank failed, at what
// simulated clock, and why. It is the error Run returns when a worker fails
// (errors.As recovers it through any wrapping), the error a poisoned
// cluster keeps reporting, and the starting point for elastic recovery —
// Survivors and Recover are derived from the failures the workers recorded,
// one at most per rank.
type Failure struct {
	// Rank is the cluster rank whose function failed or panicked.
	Rank int
	// Clock is the rank's simulated time at the failure, in seconds.
	Clock float64
	// Panicked distinguishes a panic from a returned error.
	Panicked bool
	// Err is the underlying cause.
	Err error
}

// Error names the worker, the failure clock and the cause.
func (f *Failure) Error() string {
	verb := "failed"
	if f.Panicked {
		verb = "panicked"
	}
	return fmt.Sprintf("dist: worker %d %s at t=%.6gs: %v", f.Rank, verb, f.Clock, f.Err)
}

// Unwrap exposes the cause to errors.Is/errors.As.
func (f *Failure) Unwrap() error { return f.Err }

// Cluster is a set of simulated workers, each the home of its rank's state,
// plus their shared plumbing: group cache, fault plan, monitor, Run
// lifecycle and abort state.
type Cluster struct {
	cfg     Config
	machine Machine // cfg.Machine with its defaults filled in
	workers []*Worker

	// solo marks a cluster built by NewSolo: workers holds rank 0 alone, and
	// every collective is a direct call on its goroutine (Group.soloJoin).
	solo bool

	groupMu sync.Mutex
	groups  map[string]*Group

	// fault is the installed gray-failure schedule (nil when Config.Faults
	// was nil or empty — the perturbation branches are then never taken).
	// monitor is the optional straggler detector over the workers' step
	// samples; both are set before any Run and immutable afterwards.
	fault   *FaultPlan
	monitor *Monitor

	// aborted is what collectives poll; abortErr is written before aborted
	// is set and never again.
	aborted   atomic.Bool
	abortOnce sync.Once
	abortErr  error

	// life guards the Run lifecycle. running is set for the duration of a
	// Run: the workers' clocks and parking slots belong to that Run's
	// goroutines alone. closed is set by Close. slots are the rank
	// goroutines' start slots, made by the first full-cluster Run and closed
	// (releasing the goroutines) by Close, by a poisoning Run's end or by
	// cleanup once the cluster is unreachable. id is the cluster's number in
	// its rank goroutines' profiler labels, drawn when they start.
	life    sync.Mutex
	running bool
	closed  bool
	slots   []chan *Worker
	cleanup runtime.Cleanup
	id      string

	// fn and done are the active Run's function and the count of ranks
	// still running it.
	fn   func(w *Worker) error
	done sync.WaitGroup
}

// New builds a cluster with WorldSize workers. It panics on a non-positive
// world size and on a machine that fails Machine.Check; zero machine fields
// take the Meluxina defaults.
func New(cfg Config) *Cluster {
	c := newCluster(cfg, cfg.WorldSize)
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Check(cfg.WorldSize); err != nil {
			panic(err.Error())
		}
		c.fault = cfg.Faults
	}
	return c
}

// NewSolo builds a solo cluster: a world of WorldSize ranks — groups have
// their full size and span the links their rank lists say — of which Run
// executes rank 0 alone, on the calling goroutine, every collective a
// direct call that completes on its arrival. It prices SPMD phantom schedules and is exact
// only under the rank symmetry the package comment spells out ("Solo
// clusters"), which the caller vouches for; it panics on a fault plan.
func NewSolo(cfg Config) *Cluster {
	if !cfg.Faults.Empty() {
		panic("dist: a solo cluster takes no fault plan (faults break the rank symmetry a solo run stands on)")
	}
	c := newCluster(cfg, 1)
	c.solo = true
	return c
}

// newCluster builds the cluster state shared by New and NewSolo with the
// first live of the world's ranks materialised as workers.
func newCluster(cfg Config, live int) *Cluster {
	if cfg.WorldSize < 1 {
		panic(fmt.Sprintf("dist: world size %d", cfg.WorldSize))
	}
	c := &Cluster{
		cfg:     cfg,
		machine: cfg.Machine.WithDefaults(),
		groups:  make(map[string]*Group),
	}
	workers := make([]Worker, live)
	c.workers = make([]*Worker, live)
	for r := range workers {
		workers[r] = Worker{c: c, rank: r, slow: 1, wake: make(chan struct{}, 2)}
		c.workers[r] = &workers[r]
	}
	return c
}

// Faults returns the installed gray-failure schedule, or nil for a pristine
// cluster (including one configured with an empty plan).
func (c *Cluster) Faults() *FaultPlan { return c.fault }

// AttachMonitor gives every worker a ring of the config's Window step
// samples, into which Worker.EndStep records its (total, busy) split, and
// returns the detector that reads them. Call it before the first Run; it
// panics on a second attach.
func (c *Cluster) AttachMonitor(cfg MonitorConfig) *Monitor {
	if c.solo {
		panic("dist: a solo cluster takes no monitor (it would see one rank of the world)")
	}
	if c.monitor != nil {
		panic("dist: cluster already has a monitor attached")
	}
	c.monitor = newMonitor(cfg, c.workers)
	return c.monitor
}

// Monitor returns the attached telemetry sink, or nil.
func (c *Cluster) Monitor() *Monitor { return c.monitor }

// WorldSize returns the number of ranks.
func (c *Cluster) WorldSize() int { return c.cfg.WorldSize }

// Machine returns the machine the cluster simulates, its defaults filled in.
func (c *Cluster) Machine() Machine { return c.machine }

// errClosed is what Run returns on a closed cluster.
var errClosed = errors.New("dist: Run on a closed cluster")

// Run executes fn once per rank, each invocation on that rank's own
// goroutine, and waits for all of them. The first worker error or panic (by
// rank order) becomes Run's error, wrapped so errors.Is sees the cause and
// the message names the worker; every other worker is unblocked and unwound.
// After such an abort the cluster is permanently poisoned: subsequent Runs
// fail fast. On a solo cluster (NewSolo) Run calls fn for rank 0 only, on
// the caller's own goroutine, with the same error and panic handling.
//
// The rank goroutines live as long as the cluster: the first Run starts
// them, and between Runs each is parked on its start slot, holding nothing
// else, so a steady-state Run allocates nothing. Close releases them; so
// does an abort, and so does the garbage collector once nothing references
// the cluster.
//
// A cluster runs one Run at a time: a Run issued while another is active on
// the same cluster — nested from a worker, or from a second goroutine —
// returns ErrRunActive without starting anything. A Run after Close returns
// an error.
func (c *Cluster) Run(fn func(w *Worker) error) error {
	if err := c.abortedErr(); err != nil {
		return fmt.Errorf("dist: cluster aborted by earlier run: %w", err)
	}
	if err := c.begin(); err != nil {
		return err
	}
	c.fn = fn
	if c.solo {
		c.runWorker(c.workers[0], fn)
	} else {
		c.done.Add(len(c.workers))
		for r, w := range c.workers {
			c.slots[r] <- w
		}
		c.done.Wait()
	}
	c.fn = nil
	c.end()
	// A Run starts only on a healthy cluster, so every failure on record
	// is this Run's.
	if f := c.Failure(); f != nil {
		return f
	}
	// Every worker unwound quietly but the cluster aborted anyway (a
	// failure surfaced outside any worker's own frame): report the poison.
	return c.abortedErr()
}

// clusterIDs numbers the full clusters whose rank goroutines have started,
// in the order they started, for the "cluster" profiler label.
var clusterIDs atomic.Uint64

// begin claims the cluster for one Run, starting the rank goroutines on
// the first full-cluster Run.
func (c *Cluster) begin() error {
	c.life.Lock()
	defer c.life.Unlock()
	switch {
	case c.closed:
		return errClosed
	case c.running:
		return ErrRunActive
	}
	c.running = true
	if !c.solo && c.slots == nil {
		c.slots = make([]chan *Worker, len(c.workers))
		c.id = strconv.FormatUint(clusterIDs.Add(1), 10)
		for r := range c.slots {
			c.slots[r] = make(chan *Worker, 1)
			go rankLoop(c.slots[r], r, c.id)
		}
		// The cleanup holds the slots, never the cluster, so it does not
		// keep the cluster reachable.
		c.cleanup = runtime.AddCleanup(c, closeSlots, c.slots)
	}
	return nil
}

// end releases the Run's claim. A poisoned cluster never runs again, so its
// rank goroutines exit now, as does a cluster Closed during the Run.
func (c *Cluster) end() {
	c.life.Lock()
	defer c.life.Unlock()
	c.running = false
	if c.closed || c.aborted.Load() {
		c.releaseLocked()
	}
}

// Close releases the cluster's rank goroutines; a Run after it returns an
// error. Clocks, statistics and failures stay readable. Close is idempotent,
// and a Close during a Run takes effect when that Run returns. A cluster
// that is simply dropped is released by the garbage collector instead, so
// Close is for callers that want the goroutines gone now.
func (c *Cluster) Close() {
	c.life.Lock()
	defer c.life.Unlock()
	c.closed = true
	if !c.running {
		c.releaseLocked()
	}
}

// releaseLocked closes the start slots once, which ends every rank
// goroutine. The caller holds c.life.
func (c *Cluster) releaseLocked() {
	if c.slots == nil {
		return
	}
	c.cleanup.Stop()
	closeSlots(c.slots)
	c.slots = nil
}

// closeSlots ends the rank goroutines parked on slots.
func closeSlots(slots []chan *Worker) {
	for _, s := range slots {
		close(s)
	}
}

// rankLoop is one rank's goroutine: it runs the active Run's function for
// each worker its slot delivers and exits when the slot closes. While parked
// it holds the slot alone — never the worker or the cluster, which stay
// collectable. It first sets its profiler labels, rank and cluster, once for
// its lifetime, so `go tool pprof -tagfocus rank=3` splits any CPU profile
// by rank.
func rankLoop(slot <-chan *Worker, rank int, cluster string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("rank", strconv.Itoa(rank), "cluster", cluster)))
	for w := range slot {
		w.c.runRank(w)
	}
}

// runRank runs the active Run's function on w's goroutine and reports the
// rank done. Should fn end the goroutine itself (runtime.Goexit, as
// t.FailNow from a worker does), the rank gets a fresh goroutine on the
// same slot.
func (c *Cluster) runRank(w *Worker) {
	exited := true
	defer func() {
		if exited {
			go rankLoop(c.slots[w.rank], w.rank, c.id)
		}
		c.done.Done()
	}()
	c.runWorker(w, c.fn)
	exited = false
}

// runWorker calls fn for one rank and turns its error or panic into the
// *Failure the worker records and the cluster aborts with; the quiet unwind
// of a worker some other rank's failure released is no failure of its own.
func (c *Cluster) runWorker(w *Worker, fn func(w *Worker) error) {
	defer func() {
		if r := recover(); r != nil {
			if _, quiet := r.(abortSignal); quiet {
				return
			}
			c.fail(w, &Failure{Rank: w.rank, Clock: w.clock, Panicked: true, Err: fmt.Errorf("%v", r)})
		}
	}()
	if err := fn(w); err != nil {
		c.fail(w, &Failure{Rank: w.rank, Clock: w.clock, Err: err})
	}
}

// abortWith poisons the cluster with the first failure and releases every
// blocked worker: the flag first, so that whoever wakes sees it, then one
// token into every parking slot — a worker blocks nowhere else.
func (c *Cluster) abortWith(err error) {
	c.abortOnce.Do(func() {
		c.abortErr = err
		c.aborted.Store(true)
		for _, w := range c.workers {
			w.wake <- struct{}{}
		}
	})
}

// fail records a worker's failure on the worker and poisons the cluster
// with the first one.
func (c *Cluster) fail(w *Worker, f *Failure) {
	w.failure = f
	c.abortWith(f)
}

// Failure returns the abort cause — the lowest-rank recorded failure, for
// determinism when several ranks fail in one run — or nil if the cluster
// has not aborted (or aborted without a worker failure on record). Like
// Stats, call it between Runs.
func (c *Cluster) Failure() *Failure {
	for _, w := range c.workers {
		if w.failure != nil {
			return w.failure
		}
	}
	return nil
}

// Survivors returns the ranks that never failed, in ascending order. On a
// healthy cluster that is every rank. Like Stats, call it between Runs.
func (c *Cluster) Survivors() []int {
	out := make([]int, 0, len(c.workers))
	for r, w := range c.workers {
		if w.failure == nil {
			out = append(out, r)
		}
	}
	return out
}

// Recover constructs a fresh cluster over the surviving rank budget — same
// machine, world size shrunk to the survivor count — so a driver that caught an
// abort can replan and resume instead of staying permanently poisoned. The
// poisoned cluster itself is left untouched (its Failure record keeps reporting
// the original cause); simulated clocks and statistics start from zero on the
// new cluster.
func (c *Cluster) Recover() (*Cluster, error) {
	if c.abortedErr() == nil {
		return nil, fmt.Errorf("dist: Recover on a healthy cluster")
	}
	n := len(c.Survivors())
	if n == 0 {
		return nil, fmt.Errorf("dist: no surviving ranks to recover onto")
	}
	return New(Config{WorldSize: n, Machine: c.machine}), nil
}

// abortedErr returns the poisoning error, if any.
func (c *Cluster) abortedErr() error {
	if c.aborted.Load() {
		return c.abortErr
	}
	return nil
}

// checkAbort panics with abortSignal if the cluster has aborted — the
// unwind path for workers arriving at, or woken inside, a collective.
func (c *Cluster) checkAbort() {
	if c.aborted.Load() {
		panic(abortSignal{})
	}
}

// Group returns the communicator over the given cluster ranks, in exactly
// the given canonical order. Groups are cached: every member calling with
// the same rank list shares one object (and its round pool and channel
// clock). It panics on an empty list, an out-of-range rank, or a duplicate.
func (c *Cluster) Group(ranks ...int) *Group {
	var g [1]*Group
	c.Groups(g[:], ranks)
	return g[0]
}

// Groups sets out[i] to Group(lists[i]...) for every list. The groups not
// made yet are made together: their Group values, rank lists and cache keys
// take one allocation each, however many there are — mesh.NewProc asks for a
// processor's row, column, depth fibre and slab at once, and a phantom
// replay builds every processor afresh.
func (c *Cluster) Groups(out []*Group, lists ...[]int) {
	if len(out) != len(lists) {
		panic(fmt.Sprintf("dist: %d groups asked into %d slots", len(lists), len(out)))
	}
	// The keys are spelled into a stack buffer, list i's at
	// keys[at[i]:at[i+1]], and looked up as groups[string(key)], which the
	// compiler does without materialising the string; only new groups pay
	// for theirs, one string for the call. Four 64-rank lists fit the
	// buffers; longer ones spill to the heap and still work.
	var kbuf [1024]byte
	var abuf [8]int
	keys, at := kbuf[:0], abuf[:1]
	for _, ranks := range lists {
		if len(ranks) == 0 {
			panic("dist: empty group")
		}
		for i, r := range ranks {
			if r < 0 || r >= c.cfg.WorldSize {
				panic(fmt.Sprintf("dist: group rank %d outside world of %d", r, c.cfg.WorldSize))
			}
			if i > 0 {
				keys = append(keys, ',')
			}
			keys = strconv.AppendInt(keys, int64(r), 10)
		}
		at = append(at, len(keys))
	}
	c.groupMu.Lock()
	defer c.groupMu.Unlock()
	missing, elems := 0, 0
	for i, ranks := range lists {
		if out[i] = c.groups[string(keys[at[i]:at[i+1]])]; out[i] == nil {
			missing++
			elems += len(ranks)
		}
	}
	if missing == 0 {
		return
	}
	// A list repeated within the call finds the group its first occurrence
	// made, leaving a spare Group value unused.
	gs, all, names := make([]Group, missing), make([]int, elems), string(keys)
	for i, ranks := range lists {
		name := names[at[i]:at[i+1]]
		if out[i] = c.groups[name]; out[i] != nil {
			continue
		}
		n := copy(all, ranks)
		out[i] = &gs[0]
		out[i].init(c, all[:n:n])
		c.groups[name] = out[i]
		gs, all = gs[1:], all[n:]
	}
}

// WorldGroup returns the group spanning every rank in order.
func (c *Cluster) WorldGroup() *Group {
	ranks := make([]int, c.cfg.WorldSize)
	for i := range ranks {
		ranks[i] = i
	}
	return c.Group(ranks...)
}

// MaxClock returns the largest simulated clock across ranks, in seconds.
// Call it between Runs (it does not synchronise with running workers).
func (c *Cluster) MaxClock() float64 {
	var out float64
	for _, w := range c.workers {
		if w.clock > out {
			out = w.clock
		}
	}
	return out
}

// ResetClocks zeroes every worker clock, busy and overlap account and every
// group's comm-channel state, starting a new timing window while keeping
// traffic statistics. Call it between Runs only.
func (c *Cluster) ResetClocks() {
	for _, w := range c.workers {
		w.clock = 0
		w.busy = 0
		w.commTotal = 0
		w.commHidden = 0
	}
	c.groupMu.Lock()
	for _, g := range c.groups {
		g.mu.Lock()
		g.lastFinish = 0
		g.mu.Unlock()
	}
	c.groupMu.Unlock()
}

// Overlap reports the simulated communication seconds accumulated since the
// last ResetClocks across all workers, and the portion that was hidden
// behind compute by nonblocking collectives (issue → Wait windows the
// workers spent computing). hidden/total is the overlap fraction the
// benchmarks report. Call it between Runs (it does not synchronise with
// running workers).
func (c *Cluster) Overlap() (hidden, total float64) {
	for _, w := range c.workers {
		hidden += w.commHidden
		total += w.commTotal
	}
	return hidden, total
}
