package dist

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Config describes a simulated cluster.
type Config struct {
	// WorldSize is the number of ranks (required, ≥ 1).
	WorldSize int
	// GPUsPerNode maps ranks to nodes for link pricing: ranks r with equal
	// r/GPUsPerNode share a node. Zero means 4, as on Meluxina.
	GPUsPerNode int
	// Cost is the machine model; the zero value means MeluxinaModel().
	Cost CostModel
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
// Survivors and Recover are derived from the recorded failures.
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

// Cluster is a set of simulated workers plus their shared plumbing: group
// cache, point-to-point mailboxes, clocks, statistics and abort state.
type Cluster struct {
	cfg     Config
	cost    CostModel
	gpn     int
	workers []*Worker

	// solo marks a cluster built by NewSolo: workers holds rank 0 alone and
	// every group completes a round on that one arrival.
	solo bool

	groupMu sync.Mutex
	groups  map[string]*Group

	mail  *mailboxSet
	stats *statsBook

	// fault is the installed gray-failure schedule (nil when Config.Faults
	// was nil or empty — the perturbation branches are then never taken).
	// monitor is the optional telemetry sink workers report step samples to;
	// both are set before any Run and immutable afterwards.
	fault   *FaultPlan
	monitor *Monitor

	// aborted is what collectives poll; the abort channel is closed with it
	// for the one blocking wait that is not a rendezvous (mailbox.take).
	// abortErr is written before aborted is set and never again.
	aborted   atomic.Bool
	abort     chan struct{}
	abortOnce sync.Once
	abortErr  error

	// running is set for the duration of a Run: the workers' clocks and
	// parking slots belong to that Run's goroutines alone.
	running atomic.Bool

	failMu   sync.Mutex
	failures []*Failure
}

// New builds a cluster with WorldSize workers. It panics on a non-positive
// world size; a zero cost model defaults to MeluxinaModel.
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
// executes rank 0 alone, on the calling goroutine, every collective
// completing on its arrival. It prices SPMD phantom schedules and is exact
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
	gpn := cfg.GPUsPerNode
	if gpn <= 0 {
		gpn = 4
	}
	c := &Cluster{
		cfg:    cfg,
		cost:   cfg.Cost.WithDefaults(),
		gpn:    gpn,
		groups: make(map[string]*Group),
		mail:   newMailboxSet(),
		stats:  newStatsBook(live),
		abort:  make(chan struct{}),
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

// AttachMonitor wires a telemetry sink sized for this cluster: every
// Worker.EndStep reports its (total, busy) split to it. Call it before the
// first Run; it panics on a second attach or a world-size mismatch. Returns
// the monitor for convenience.
func (c *Cluster) AttachMonitor(cfg MonitorConfig) *Monitor {
	if c.solo {
		panic("dist: a solo cluster takes no monitor (it would see one rank of the world)")
	}
	if c.monitor != nil {
		panic("dist: cluster already has a monitor attached")
	}
	c.monitor = newMonitor(cfg, c.cfg.WorldSize)
	return c.monitor
}

// Monitor returns the attached telemetry sink, or nil.
func (c *Cluster) Monitor() *Monitor { return c.monitor }

// WorldSize returns the number of ranks.
func (c *Cluster) WorldSize() int { return c.cfg.WorldSize }

// node returns the node index of a rank.
func (c *Cluster) node(rank int) int { return rank / c.gpn }

// Run executes fn once per rank, each invocation on its own goroutine, and
// waits for all of them. The first worker error or panic (by rank order)
// becomes Run's error, wrapped so errors.Is sees the cause and the message
// names the worker; every other worker is unblocked and unwound. After such
// an abort the cluster is permanently poisoned: subsequent Runs fail fast.
// On a solo cluster (NewSolo) Run calls fn for rank 0 only, on the caller's
// own goroutine, with the same error and panic handling.
//
// A cluster runs one Run at a time: a Run issued while another is active on
// the same cluster — nested from a worker, or from a second goroutine —
// returns ErrRunActive without starting anything.
func (c *Cluster) Run(fn func(w *Worker) error) error {
	if err := c.abortedErr(); err != nil {
		return fmt.Errorf("dist: cluster aborted by earlier run: %w", err)
	}
	if !c.running.CompareAndSwap(false, true) {
		return ErrRunActive
	}
	defer c.running.Store(false)
	errs := make([]error, len(c.workers))
	if c.solo {
		errs[0] = c.runWorker(c.workers[0], fn)
	} else {
		var wg sync.WaitGroup
		for _, w := range c.workers {
			wg.Add(1)
			go func(w *Worker) {
				defer wg.Done()
				errs[w.rank] = c.runWorker(w, fn)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Every worker unwound quietly but the cluster aborted anyway (a
	// failure surfaced outside any worker's own frame): report the poison.
	if err := c.abortedErr(); err != nil {
		return err
	}
	return nil
}

// runWorker calls fn for one rank and turns its error or panic into the
// recorded *Failure that aborts the cluster; the quiet unwind of a worker
// some other rank's failure released is no failure of its own.
func (c *Cluster) runWorker(w *Worker, fn func(w *Worker) error) (failure error) {
	defer func() {
		if r := recover(); r != nil {
			if _, quiet := r.(abortSignal); quiet {
				return
			}
			f := &Failure{Rank: w.rank, Clock: w.clock, Panicked: true, Err: fmt.Errorf("%v", r)}
			c.recordFailure(f)
			failure = f
		}
	}()
	if err := fn(w); err != nil {
		f := &Failure{Rank: w.rank, Clock: w.clock, Err: err}
		c.recordFailure(f)
		return f
	}
	return nil
}

// abortWith poisons the cluster with the first failure and releases every
// blocked worker: the flag first, so that whoever wakes sees it, then the
// channel for receivers blocked on a mailbox, then one token into every
// parking slot.
func (c *Cluster) abortWith(err error) {
	c.abortOnce.Do(func() {
		c.abortErr = err
		c.aborted.Store(true)
		close(c.abort)
		for _, w := range c.workers {
			w.wake <- struct{}{}
		}
	})
}

// recordFailure registers a worker failure and poisons the cluster with the
// first one.
func (c *Cluster) recordFailure(f *Failure) {
	c.failMu.Lock()
	c.failures = append(c.failures, f)
	c.failMu.Unlock()
	c.abortWith(f)
}

// Failure returns the abort cause — the lowest-rank recorded failure, for
// determinism when several ranks fail in one run — or nil if the cluster
// has not aborted (or aborted without a worker failure on record).
func (c *Cluster) Failure() *Failure {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	var first *Failure
	for _, f := range c.failures {
		if first == nil || f.Rank < first.Rank {
			first = f
		}
	}
	return first
}

// Failures returns every recorded worker failure, sorted by rank.
func (c *Cluster) Failures() []*Failure {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	out := append([]*Failure(nil), c.failures...)
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// Survivors returns the ranks that never failed, in ascending order. On a
// healthy cluster that is every rank.
func (c *Cluster) Survivors() []int {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	dead := make(map[int]bool, len(c.failures))
	for _, f := range c.failures {
		dead[f.Rank] = true
	}
	out := make([]int, 0, len(c.workers)-len(dead))
	for r := range c.workers {
		if !dead[r] {
			out = append(out, r)
		}
	}
	return out
}

// Recover constructs a fresh cluster over the surviving rank budget — same
// cost model and node mapping, world size shrunk to the survivor count —
// so a driver that caught an abort can replan and resume instead of staying
// permanently poisoned. The poisoned cluster itself is left untouched (its
// Failure record keeps reporting the original cause); simulated clocks and
// statistics start from zero on the new cluster.
func (c *Cluster) Recover() (*Cluster, error) {
	if c.abortedErr() == nil {
		return nil, fmt.Errorf("dist: Recover on a healthy cluster")
	}
	n := len(c.Survivors())
	if n == 0 {
		return nil, fmt.Errorf("dist: no surviving ranks to recover onto")
	}
	return New(Config{WorldSize: n, GPUsPerNode: c.cfg.GPUsPerNode, Cost: c.cfg.Cost}), nil
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
// the same rank list shares one object (and its channel plumbing). It
// panics on an empty list, an out-of-range rank, or a duplicate.
func (c *Cluster) Group(ranks ...int) *Group {
	if len(ranks) == 0 {
		panic("dist: empty group")
	}
	// The key is spelled into a stack buffer and looked up as
	// groups[string(key)], which the compiler does without materialising the
	// string: mesh.NewProc asks for four groups on every rank, and only the
	// first asker of each pays for a key, on insert. 64 ranks fit the buffer;
	// a longer list spills to the heap and still works.
	var buf [256]byte
	key := buf[:0]
	for i, r := range ranks {
		if r < 0 || r >= c.cfg.WorldSize {
			panic(fmt.Sprintf("dist: group rank %d outside world of %d", r, c.cfg.WorldSize))
		}
		if i > 0 {
			key = append(key, ',')
		}
		key = strconv.AppendInt(key, int64(r), 10)
	}
	c.groupMu.Lock()
	defer c.groupMu.Unlock()
	if g, ok := c.groups[string(key)]; ok {
		return g
	}
	g := newGroup(c, ranks)
	c.groups[string(key)] = g
	return g
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

// Stats returns a snapshot of the accumulated communication statistics.
// Like MaxClock, call it between Runs: the per-rank shards it sums are
// plain memory written by the worker goroutines, so a snapshot taken while
// a Run is in progress would race.
func (c *Cluster) Stats() Stats { return c.stats.snapshot() }
