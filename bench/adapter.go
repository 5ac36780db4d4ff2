package main

// adapter.go is the only file of the benchmark that imports
// repro/internal/... or runs the repository's CLIs. Everything the benchmark
// needs from the system under test is reached from here, so a change to an
// internal API has exactly one file to keep compiling; README.md lists the
// entry points.

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/tables"
	"repro/internal/tensor"
	"repro/internal/tesseract"
	"repro/internal/vit"

	// The remaining families register themselves with parallel.
	_ "repro/internal/megatron"
	_ "repro/internal/optimus"
	_ "repro/internal/seqpar"
)

// chunkStat is what one chunk of a workload did.
type chunkStat struct {
	ops     int     // operations attempted
	refused int     // operations the system turned away by design (admission control)
	failed  int     // operations that errored or gave a wrong output
	sim     float64 // simulated seconds the chunk took
}

// layerCtx is what the per-layer stage hands a workload.
type layerCtx struct {
	tr     *tracer       // spans of the traced pass
	opWall float64       // untraced median host seconds per op
	budget time.Duration // host time one probe may measure for
	root   string        // checkout root, where the CLIs are built
}

// workload is one of the five benchmark workloads. setup builds everything
// a user builds before the first timed op; chunk runs one chunk of the
// workload's frozen composition — through the product's own loop when tr is
// nil, through the benchmark's loop with a span around every call into a
// layer otherwise; check verifies outputs and returns one line per failed
// check; layers reports the per-layer metrics.
type workload interface {
	setup() error
	chunk(tr *tracer) (chunkStat, error)
	check() ([]string, error)
	layers(lc layerCtx, put func(name string, v float64)) error
}

// Frozen chunk compositions. Each was sized once at the seed commit on a
// 2-core machine so that a chunk takes 0.3-0.6 s of host time (see
// README.md, "Calibration"); they never change, so ops are comparable
// between commits.
const (
	trainSmallSteps   = 600  // steps per chunk, ~0.8 ms each
	trainWideSteps    = 4    // steps per chunk, ~120 ms each
	elasticCycles     = 4    // megatron→seqpar→megatron round trips per chunk
	elasticPhaseSteps = 16   // steps on one family between re-shards
	tablesPasses      = 4    // Table 1 + Table 2 + planner study replays per chunk
	serveRungRequests = 1200 // requests offered per rung of the ladder

	// serveLimitRung is the rung whose latency the issue's sim_latency_*
	// metrics read; serveP99LimitMs is the latency limit sim_max_rate_rps
	// holds the ladder to, chosen so the seed commit lands mid-ladder.
	serveLimitRung  = 2
	serveP99LimitMs = 0.4
)

// newWorkload builds the named workload for a seed. scale divides the
// frozen op counts (tests run at 1/500); 1 is the benchmark itself.
func newWorkload(name string, seed uint64, scale int) (workload, error) {
	div := func(n int) int { return max(1, n/scale) }
	tess := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	switch name {
	case "train-small":
		return &trainWL{seed: seed, layout: tess, image: 8, hidden: 16, heads: 4, batch: 8, steps: div(trainSmallSteps)}, nil
	case "train-wide":
		return &trainWL{seed: seed, layout: tess, image: 16, hidden: 256, heads: 8, batch: 16, steps: div(trainWideSteps)}, nil
	case "train-1d-elastic":
		return &elasticWL{seed: seed, cycles: div(elasticCycles), phase: div(elasticPhaseSteps)}, nil
	case "paper-tables":
		return &tablesWL{passes: div(tablesPasses)}, nil
	case "serve-mixed":
		return &serveWL{seed: seed, layout: tess, perRung: max(16, serveRungRequests/scale)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fixture is the dataset, model and trainer configuration of a ViT
// workload, all drawn from the workload seed.
type fixture struct {
	ds   *vit.Dataset
	mcfg vit.ModelConfig
	tc   vit.TrainConfig
}

func newFixture(seed uint64, image, hidden, heads, batch int) fixture {
	dcfg := vit.DataConfig{Classes: 4, ImageSize: image, Channels: 3, PatchSize: 4, Train: 8, Test: 4, Seed: 1000*seed + 11}
	return fixture{
		ds: vit.NewDataset(dcfg),
		mcfg: vit.ModelConfig{
			PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(),
			Hidden: hidden, Heads: heads, Layers: 2, Classes: dcfg.Classes, Seed: 1000*seed + 3,
		},
		tc: vit.TrainConfig{Epochs: 1, BatchSize: batch, LR: 0.003, WeightDecay: 0.05, Seed: 1000*seed + 5},
	}
}

// lossDev trains the first four steps at the layout and on one worker and
// returns the largest loss difference — the Figure 7 claim as a number —
// and, if it breaks the repository's 1e-8 contract, a line saying so.
func (fx fixture) lossDev(l parallel.Layout) (dev float64, bad []string, err error) {
	const steps = 4
	got, err := vit.TrainLayoutSteps(l, fx.ds, fx.mcfg, fx.tc, steps)
	if err != nil {
		return 0, nil, fmt.Errorf("training %s: %w", l, err)
	}
	want, err := vit.TrainLayoutSteps(serialLayout, fx.ds, fx.mcfg, fx.tc, steps)
	if err != nil {
		return 0, nil, fmt.Errorf("training the single-worker reference: %w", err)
	}
	for i := range got {
		dev = math.Max(dev, math.Abs(got[i]-want[i]))
	}
	if dev > lossTol {
		bad = append(bad, fmt.Sprintf("first %d losses at %s differ from the single-worker run by %g > %g", steps, l, dev, lossTol))
	}
	return dev, bad, nil
}

// testRows indexes every test sample.
func (fx fixture) testRows() []int {
	idx := make([]int, len(fx.ds.Test))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// serialLayout is the single-worker baseline every family is compared to.
var serialLayout = parallel.Layout{Family: "tesseract", Q: 1, D: 1}

// lossTol is the repository's distributed-vs-serial contract.
const lossTol = 1e-8

// session is the benchmark's own training loop over one family on a
// cluster: the same calls vit.StepBencher.Steps makes, with a span around
// each call into a layer and the step bracketed for dist.Monitor.
type session struct {
	c      *dist.Cluster
	fams   []parallel.Family
	models []*vit.DistModel
	opts   []*nn.Adam
	fx     fixture
	x      *tensor.Matrix
	labels []int
	opSpan string
	step   int
}

// newSession builds the family's per-rank models on c, which the caller
// may share between sessions of equal world size.
func newSession(c *dist.Cluster, l parallel.Layout, fx fixture) (*session, error) {
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	if l.Ranks != c.WorldSize() {
		return nil, fmt.Errorf("layout %s needs %d ranks, cluster has %d", l, l.Ranks, c.WorldSize())
	}
	if err := vit.TrainableErr(l, fx.tc.BatchSize, fx.mcfg); err != nil {
		return nil, err
	}
	s := &session{
		c:      c,
		fams:   make([]parallel.Family, l.Ranks),
		models: make([]*vit.DistModel, l.Ranks),
		opts:   make([]*nn.Adam, l.Ranks),
		fx:     fx,
		opSpan: l.Family + ".step",
	}
	idx := make([]int, fx.tc.BatchSize)
	for i := range idx {
		idx[i] = i % len(fx.ds.Train)
	}
	s.x, s.labels = fx.ds.Batch(fx.ds.Train, idx)
	err = c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		s.fams[w.Rank()] = f
		s.models[w.Rank()] = vit.NewDistModel(f, fx.mcfg)
		s.opts[w.Rank()] = nn.NewAdam(fx.tc.LR, fx.tc.WeightDecay)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// steps runs n training steps on the fixed batch inside one cluster run.
// Rank 0 records the spans.
func (s *session) steps(n int, tr *tracer) error {
	seq := s.fx.mcfg.SeqLen
	first := s.step
	err := s.c.Run(func(w *dist.Worker) error {
		f, model, opt := s.fams[w.Rank()], s.models[w.Rank()], s.opts[w.Rank()]
		params := model.Params()
		var t *tracer
		if w.Rank() == 0 {
			t = tr
		}
		for i := 0; i < n; i++ {
			w.BeginStep(first + i)
			op := t.beginOp(s.opSpan, 1)
			sp := t.begin("vit.fwd")
			logits := model.Forward(vit.DistributeBatch(f, s.x, seq))
			t.end(sp)
			sp = t.begin("nn.xent")
			dl := w.Workspace().GetUninitMatch(logits.Rows, logits.Cols, logits.Phantom())
			nn.CrossEntropyInto(dl, logits, s.labels)
			t.end(sp)
			sp = t.begin("vit.bwd")
			for _, pa := range params {
				pa.ZeroGrad()
			}
			model.Backward(dl)
			t.end(sp)
			sp = t.begin("nn.adam")
			opt.Step(params)
			t.end(sp)
			sp = t.begin("vit.endstep")
			f.EndStep()
			t.end(sp)
			t.end(op)
			w.EndStep()
		}
		return nil
	})
	s.step += n
	return err
}

// forward runs one padded inference batch the way the serving runtime
// does: the forward, the step boundary, and the clock-sync all-gather.
func (s *session) forward(x *tensor.Matrix, clk, clks []*tensor.Matrix, tr *tracer) error {
	seq := s.fx.mcfg.SeqLen
	return s.c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		var t *tracer
		if r == 0 {
			t = tr
		}
		sp := t.begin("vit.fwd")
		s.models[r].Forward(vit.DistributeBatch(s.fams[r], x, seq))
		t.end(sp)
		sp = t.begin("vit.endstep")
		s.fams[r].EndStep()
		t.end(sp)
		sp = t.begin("dist.allgather")
		w.Cluster().WorldGroup().AllGatherInto(w, clk[r], clks[r])
		t.end(sp)
		return nil
	})
}

// evalLogits is the trainer's eval forward over the given test rows,
// padded to the family's row unit; it returns rank 0's logits for the real
// rows.
func (s *session) evalLogits(idx []int) (*tensor.Matrix, error) {
	var out *tensor.Matrix
	err := s.c.Run(func(w *dist.Worker) error {
		f := s.fams[w.Rank()]
		unit := f.RowShards()
		pidx := make([]int, (len(idx)+unit-1)/unit*unit)
		copy(pidx, idx)
		for i := len(idx); i < len(pidx); i++ {
			pidx[i] = idx[0]
		}
		x, _ := s.fx.ds.Batch(s.fx.ds.Test, pidx)
		logits := s.models[w.Rank()].Forward(vit.DistributeBatch(f, x, s.fx.mcfg.SeqLen))
		if w.Rank() == 0 {
			out = tensor.New(len(idx), logits.Cols)
			tensor.SubMatrixInto(out, logits, 0, 0)
		}
		f.EndStep()
		return nil
	})
	return out, err
}

// workspaceStats snapshots a cluster's per-rank pool counters.
func workspaceStats(c *dist.Cluster) ([]tensor.WorkspaceStats, error) {
	out := make([]tensor.WorkspaceStats, c.WorldSize())
	err := c.Run(func(w *dist.Worker) error {
		out[w.Rank()] = w.Workspace().Stats()
		return nil
	})
	return out, err
}

// liveBuffers returns one line per rank that still holds workspace
// buffers at a step boundary.
func liveBuffers(what string, stats []tensor.WorkspaceStats) []string {
	var out []string
	for r, st := range stats {
		if st.Live != 0 {
			out = append(out, fmt.Sprintf("%s: rank %d holds %d live workspace buffers after the timed ops", what, r, st.Live))
		}
	}
	return out
}

// distAgg accumulates what the public collectors say about the traced
// ops: Cluster.Stats, Cluster.Overlap, Monitor and Workspace.Stats.
type distAgg struct {
	// Counts accumulate over every traced chunk.
	ops          int64
	calls, msgs  int64
	bytes        int64
	kind         map[string]int64
	gets, misses int64
	peakBytes    int64
	// Simulated seconds are kept for the last traced chunk only: every
	// chunk replays the same clock window, and a sum over however many
	// chunks the host had time for would differ in its low-order bits
	// from run to run.
	chunkOps      int64
	hidden, total float64
	busy, span    float64
}

// beginChunk opens a traced chunk: the simulated-seconds window restarts.
func (a *distAgg) beginChunk() { a.chunkOps, a.hidden, a.total = 0, 0, 0 }

// addOps counts operations of the current chunk.
func (a *distAgg) addOps(n int) {
	a.ops += int64(n)
	a.chunkOps += int64(n)
}

// addStats adds the traffic between two snapshots of one cluster.
func (a *distAgg) addStats(before, after dist.Stats) {
	if a.kind == nil {
		a.kind = make(map[string]int64)
	}
	a.msgs += after.Messages - before.Messages
	a.bytes += after.Bytes - before.Bytes
	for k, v := range after.PerOp {
		d := v.Calls - before.PerOp[k].Calls
		a.calls += d
		a.kind[k] += d
	}
}

// addOverlap adds a cluster's simulated communication seconds since its
// last ResetClocks.
func (a *distAgg) addOverlap(c *dist.Cluster) {
	h, t := c.Overlap()
	a.hidden += h
	a.total += t
}

// addMonitor adds the busy/total split of every rank's last n steps (the
// last chunk's).
func (a *distAgg) addMonitor(m *dist.Monitor, world, n int) {
	for r := 0; r < world; r++ {
		samples := m.Samples(r)
		for _, s := range samples[max(0, len(samples)-n):] {
			a.busy += s.Busy
			a.span += s.Total
		}
	}
}

// addWorkspace adds the pool traffic between two per-rank snapshots.
func (a *distAgg) addWorkspace(before, after []tensor.WorkspaceStats) {
	for r := range after {
		a.gets += int64(after[r].Gets - before[r].Gets)
		a.misses += int64(after[r].Allocs - before[r].Allocs)
		a.peakBytes = max(a.peakBytes, after[r].HighWaterBytes)
	}
}

// meanMessageElems is the mean collective payload in float64 elements —
// the size the rendezvous probes run at. (The collectors keep totals, not
// a distribution, so this is the mean where the issue asked for a median.)
func (a *distAgg) meanMessageElems() int {
	if a.msgs == 0 {
		return 1
	}
	return int(max(1, a.bytes/a.msgs/8))
}

func (a *distAgg) report(put func(string, float64)) {
	if a.ops == 0 {
		return
	}
	per := func(v float64) float64 { return v / float64(a.ops) }
	put("dist.calls_per_op", per(float64(a.calls)))
	put("dist.msgs_per_op", per(float64(a.msgs)))
	put("dist.bytes_per_op", per(float64(a.bytes)))
	for _, k := range collectiveKinds {
		put("dist."+k+"_calls_per_op", per(float64(a.kind[k])))
	}
	put("dist.sim_comm_s_per_op", a.total/float64(a.chunkOps))
	put("dist.sim_hidden_s_per_op", a.hidden/float64(a.chunkOps))
	if a.total > 0 {
		put("dist.sim_overlap_frac", a.hidden/a.total)
	}
	if a.span > 0 {
		put("dist.sim_busy_frac", a.busy/a.span)
	}
	put("tensor.ws_gets_per_op", per(float64(a.gets)))
	put("tensor.ws_misses_per_op", per(float64(a.misses)))
	put("tensor.ws_peak_bytes", float64(a.peakBytes))
}

// stepSpans reports the self times of the benchmark's step loop, and the
// share of the traced steps' host time they account for.
func stepSpans(tr *tracer, put func(string, float64)) {
	self := tr.selfTimes()
	var inside, steps float64
	for _, n := range []string{"vit.fwd", "nn.xent", "vit.bwd", "nn.adam", "vit.endstep"} {
		put(n+"_wall_us", median(self[n])/1e3)
		for _, ns := range self[n] {
			inside += ns
		}
	}
	for name, durs := range tr.durations() {
		if strings.HasSuffix(name, ".step") {
			for _, ns := range durs {
				steps += ns
			}
		}
	}
	if steps > 0 {
		put("driver.step_cover_frac", inside/steps)
	}
}

// ---------------------------------------------------------------------
// train-small, train-wide

type trainWL struct {
	seed                 uint64
	layout               parallel.Layout
	image, hidden, heads int
	batch, steps         int
	fx                   fixture
	sb                   *vit.StepBencher
	ts                   *session
	mon                  *dist.Monitor
	ws0                  []tensor.WorkspaceStats
	agg                  distAgg
	dev                  float64
}

func (t *trainWL) setup() error {
	t.fx = newFixture(t.seed, t.image, t.hidden, t.heads, t.batch)
	sb, err := vit.NewStepBencher(t.layout, t.fx.ds, t.fx.mcfg, t.fx.tc, 3)
	t.sb = sb
	return err
}

func (t *trainWL) chunk(tr *tracer) (chunkStat, error) {
	if tr == nil {
		t.sb.ResetClocks()
		if err := t.sb.Steps(t.steps); err != nil {
			return chunkStat{}, err
		}
		return chunkStat{ops: t.steps, sim: t.sb.MaxClock()}, nil
	}
	if t.ts == nil {
		c := dist.New(dist.Config{WorldSize: t.layout.Q * t.layout.Q * t.layout.D})
		t.mon = c.AttachMonitor(dist.MonitorConfig{Window: t.steps, W: 1})
		ts, err := newSession(c, t.layout, t.fx)
		if err != nil {
			return chunkStat{}, err
		}
		if err := ts.steps(3, nil); err != nil {
			return chunkStat{}, err
		}
		if t.ws0, err = workspaceStats(c); err != nil {
			return chunkStat{}, err
		}
		t.ts = ts
	}
	c := t.ts.c
	c.ResetClocks()
	t.agg.beginChunk()
	before := c.Stats()
	if err := t.ts.steps(t.steps, tr); err != nil {
		return chunkStat{}, err
	}
	t.agg.addOps(t.steps)
	t.agg.addStats(before, c.Stats())
	t.agg.addOverlap(c)
	return chunkStat{ops: t.steps, sim: c.MaxClock()}, nil
}

func (t *trainWL) check() ([]string, error) {
	dev, bad, err := t.fx.lossDev(t.layout)
	if err != nil {
		return nil, err
	}
	t.dev = dev
	stats, err := t.sb.WorkspaceStats()
	if err != nil {
		return nil, err
	}
	bad = append(bad, liveBuffers("StepBencher", stats)...)
	return bad, nil
}

func (t *trainWL) layers(lc layerCtx, put func(string, float64)) error {
	if t.ts == nil {
		return fmt.Errorf("layers before a traced chunk")
	}
	ws1, err := workspaceStats(t.ts.c)
	if err != nil {
		return err
	}
	t.agg.addWorkspace(t.ws0, ws1)
	t.agg.addMonitor(t.mon, t.ts.c.WorldSize(), t.steps)
	t.agg.report(put)
	stepSpans(lc.tr, put)
	put("vit.loss_dev", t.dev)
	q, d := t.layout.Q, t.layout.D
	seq, h := t.fx.mcfg.SeqLen, t.hidden
	rows := t.batch * seq / (q * d)
	return runProbes(probeSpec{
		world: t.ts.c.WorldSize(), group: q, agg: &t.agg,
		gemmM: rows, gemmK: h / q, gemmN: 4 * h / q,
		softRows: rows, softCols: seq,
		summa:  &summaSpec{q: q, d: d, m: rows, k: h / q, n: 4 * h / q},
		blocks: []blockSpec{{layout: t.layout, hidden: h, heads: t.heads, seq: seq, batch: t.batch}},
		serial: &t.fx,
	}, lc, put)
}

// ---------------------------------------------------------------------
// train-1d-elastic

type elasticWL struct {
	seed          uint64
	cycles, phase int
	monitored     bool
	fx            fixture
	c             *dist.Cluster
	mon           *dist.Monitor
	fam           [2]*session // megatron, seqpar
	cks           [2][]*parallel.Checkpoint
	twin          *elasticWL // the monitored copy the traced pass runs
	ws0           []tensor.WorkspaceStats
	agg           distAgg

	// Traced-pass accounting of the re-shard path.
	simReshard, simSteps float64 // of the last chunk, like distAgg's seconds
	chunkReshards        int
	reshards             int
	ckptAllocs           uint64
	dev                  float64
}

var elasticLayouts = [2]parallel.Layout{
	{Family: "megatron", Ranks: 4},
	{Family: "seqpar", Ranks: 4},
}

func (e *elasticWL) setup() error {
	e.fx = newFixture(e.seed, 8, 64, 4, 8)
	return e.build(3)
}

// build puts both 1-D families on one 4-rank cluster and takes one round
// trip: steps on megatron, re-shard onto seqpar, as many steps there,
// re-shard back — which warms both families and the checkpoint buffers.
func (e *elasticWL) build(steps int) error {
	e.c = dist.New(dist.Config{WorldSize: 4})
	if e.monitored {
		e.mon = e.c.AttachMonitor(dist.MonitorConfig{Window: 2 * e.cycles * e.phase, W: 1})
	}
	for i, l := range elasticLayouts {
		s, err := newSession(e.c, l, e.fx)
		if err != nil {
			return err
		}
		e.fam[i] = s
		e.cks[i] = make([]*parallel.Checkpoint, 4)
	}
	for from := 0; from < 2; from++ {
		if err := e.fam[from].steps(steps, nil); err != nil {
			return err
		}
		if err := e.reshard(from, 1-from, nil); err != nil {
			return err
		}
	}
	return nil
}

// reshard checkpoints family from and restores the checkpoint onto
// family to, each in its own cluster run so the spans delimit them.
func (e *elasticWL) reshard(from, to int, tr *tracer) error {
	src, dst, cks := e.fam[from], e.fam[to], e.cks[from]
	var m0 runtime.MemStats
	clock0 := e.c.MaxClock()
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp := tr.begin("parallel.collect")
	err := e.c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		ck, err := parallel.CollectInto(cks[r], src.fams[r], src.models[r], src.opts[r])
		cks[r] = ck
		return err
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("collect from %s: %w", elasticLayouts[from], err)
	}
	sp = tr.begin("parallel.restore")
	err = e.c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		return parallel.Restore(dst.fams[r], dst.models[r], dst.opts[r], cks[r])
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("restore onto %s: %w", elasticLayouts[to], err)
	}
	dst.step = src.step
	if tr != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		e.ckptAllocs += m1.Mallocs - m0.Mallocs
		e.simReshard += e.c.MaxClock() - clock0
		e.chunkReshards++
		e.reshards++
	}
	return nil
}

func (e *elasticWL) chunk(tr *tracer) (chunkStat, error) {
	if tr != nil && !e.monitored {
		if e.twin == nil {
			twin := &elasticWL{seed: e.seed, cycles: e.cycles, phase: e.phase, monitored: true, fx: e.fx}
			if err := twin.build(3); err != nil {
				return chunkStat{}, err
			}
			var err error
			if twin.ws0, err = workspaceStats(twin.c); err != nil {
				return chunkStat{}, err
			}
			e.twin = twin
		}
		return e.twin.chunk(tr)
	}
	e.c.ResetClocks()
	e.agg.beginChunk()
	e.simReshard, e.simSteps, e.chunkReshards = 0, 0, 0
	before := e.c.Stats()
	ops := 0
	for k := 0; k < e.cycles; k++ {
		for from := 0; from < 2; from++ {
			clock0 := e.c.MaxClock()
			if err := e.fam[from].steps(e.phase, tr); err != nil {
				return chunkStat{}, err
			}
			e.simSteps += e.c.MaxClock() - clock0
			ops += e.phase
			if err := e.reshard(from, 1-from, tr); err != nil {
				return chunkStat{}, err
			}
		}
	}
	if tr != nil {
		e.agg.addOps(ops)
		e.agg.addStats(before, e.c.Stats())
		e.agg.addOverlap(e.c)
	}
	return chunkStat{ops: ops, sim: e.c.MaxClock()}, nil
}

func (e *elasticWL) check() ([]string, error) {
	var bad []string
	for _, l := range elasticLayouts {
		dev, lines, err := e.fx.lossDev(l)
		if err != nil {
			return nil, err
		}
		e.dev = math.Max(e.dev, dev)
		bad = append(bad, lines...)
	}
	stats, err := workspaceStats(e.c)
	if err != nil {
		return nil, err
	}
	bad = append(bad, liveBuffers("elastic cluster", stats)...)

	// A short megatron⇄seqpar round trip must leave the model a pure
	// megatron run of the same step count leaves.
	const phase = 4
	cyc := &elasticWL{fx: e.fx}
	if err := cyc.build(phase); err != nil {
		return nil, err
	}
	pure, err := newSession(dist.New(dist.Config{WorldSize: 4}), elasticLayouts[0], e.fx)
	if err != nil {
		return nil, err
	}
	if err := pure.steps(2*phase, nil); err != nil {
		return nil, err
	}
	idx := e.fx.testRows()
	got, err := cyc.fam[0].evalLogits(idx)
	if err != nil {
		return nil, err
	}
	want, err := pure.evalLogits(idx)
	if err != nil {
		return nil, err
	}
	if d := got.MaxAbsDiff(want); d > lossTol {
		bad = append(bad, fmt.Sprintf("eval logits after a megatron⇄seqpar round trip differ from pure megatron by %g > %g", d, lossTol))
	}
	return bad, nil
}

func (e *elasticWL) layers(lc layerCtx, put func(string, float64)) error {
	t := e.twin
	if t == nil {
		return fmt.Errorf("layers before a traced chunk")
	}
	ws1, err := workspaceStats(t.c)
	if err != nil {
		return err
	}
	t.agg.addWorkspace(t.ws0, ws1)
	t.agg.addMonitor(t.mon, 4, 2*t.cycles*t.phase)
	t.agg.report(put)
	stepSpans(lc.tr, put)
	put("vit.loss_dev", e.dev)

	dur := lc.tr.durations()
	put("megatron.step_wall_us", median(dur["megatron.step"])/1e3)
	put("seqpar.step_wall_us", median(dur["seqpar.step"])/1e3)
	put("parallel.collect_wall_us", median(dur["parallel.collect"])/1e3)
	put("parallel.restore_wall_us", median(dur["parallel.restore"])/1e3)
	var bytes int64
	for _, slot := range t.cks[0][0].Slots {
		bytes += 3 * 8 * int64(slot.Value.Size())
	}
	put("parallel.ckpt_bytes", float64(bytes))
	if t.reshards > 0 {
		put("parallel.ckpt_allocs", float64(t.ckptAllocs)/float64(t.reshards))
		simStep := t.simSteps / float64(t.agg.chunkOps)
		put("parallel.sim_reshard_steps", t.simReshard/float64(t.chunkReshards)/simStep)
	}
	seq, h := e.fx.mcfg.SeqLen, e.fx.mcfg.Hidden
	rows := e.fx.tc.BatchSize * seq
	var blocks []blockSpec
	for _, l := range elasticLayouts {
		blocks = append(blocks, blockSpec{layout: l, hidden: h, heads: e.fx.mcfg.Heads, seq: seq, batch: e.fx.tc.BatchSize})
	}
	return runProbes(probeSpec{
		world: 4, group: 4, agg: &t.agg,
		gemmM: rows, gemmK: h, gemmN: 4 * h / 4,
		softRows: rows, softCols: seq,
		blocks: blocks,
		serial: &e.fx,
	}, lc, put)
}

// ---------------------------------------------------------------------
// paper-tables

type tablesWL struct {
	passes  int
	t1, t2  []tables.Row
	scen    []tables.PlannerScenario
	res1    []tables.TableResult
	agg     distAgg
	allocs  []float64
	top3Err float64
}

func (t *tablesWL) setup() error {
	t.t1, t.t2, t.scen = tables.Table1Rows(), tables.Table2Rows(), tables.PlannerScenarios()
	_, err := t.pass()
	return err
}

// pass is what a reader of the paper runs: both tables and the planner
// study. It returns the simulated seconds of every replayed row.
func (t *tablesWL) pass() (chunkStat, error) {
	var st chunkStat
	for i, rows := range [][]tables.Row{t.t1, t.t2} {
		res, err := tables.RunTable(rows, tables.Options{})
		if err != nil {
			return st, err
		}
		if i == 0 {
			t.res1 = res
		}
		for _, r := range res {
			st.ops++
			st.sim += r.Measured.Forward + r.Measured.Backward
		}
	}
	points, err := tables.PlannerStudy(t.scen, 3, tables.Options{})
	if err != nil {
		return st, err
	}
	t.top3Err = 0
	for _, pt := range points {
		for _, v := range pt.Validations {
			st.ops++
			st.sim += v.Measured.Step()
		}
		t.top3Err = math.Max(t.top3Err, plan.MaxStepErr(pt.Validations))
	}
	return st, nil
}

func (t *tablesWL) chunk(tr *tracer) (chunkStat, error) {
	var st chunkStat
	t.agg.beginChunk()
	for p := 0; p < t.passes; p++ {
		var ps chunkStat
		var err error
		if tr == nil {
			ps, err = t.pass()
		} else {
			ps, err = t.tracedPass(tr)
		}
		if err != nil {
			return st, err
		}
		st.ops += ps.ops
		st.sim += ps.sim
		st.failed += ps.failed
	}
	return st, nil
}

// familyOf maps a table scheme to its registered family name.
func familyOf(s tables.Scheme) string {
	switch s {
	case tables.Megatron:
		return "megatron"
	case tables.SeqPar:
		return "seqpar"
	case tables.Optimus:
		return "optimus"
	}
	return "tesseract"
}

// tracedRow is tables.RunRow through the benchmark's own loop: a fresh
// cluster, phantom blocks, a forward phase and a recomputing backward
// phase, with a span around each and the cluster's collectors read at the
// end.
func (t *tablesWL) tracedRow(row tables.Row, tr *tracer) (fwd, bwd float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	op := tr.beginOp("tables.row", 1)
	defer func() {
		tr.end(op)
		runtime.ReadMemStats(&m1)
		t.allocs = append(t.allocs, float64(m1.Mallocs-m0.Mallocs))
	}()
	l, err := tables.LayoutForRow(row)
	if err != nil {
		return 0, 0, err
	}
	fam := familyOf(row.Scheme)
	sp := tr.begin("dist.new")
	c := dist.New(dist.Config{WorldSize: row.GPUs})
	tr.end(sp)
	fams := make([]parallel.Family, row.GPUs)
	blocks := make([]parallel.Layer, row.GPUs)
	xs := make([]*tensor.Matrix, row.GPUs)
	sp = tr.begin(fam + ".build")
	err = c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		fams[w.Rank()] = f
		blocks[w.Rank()] = f.NewBlockPhantom(row.Hidden, row.Heads, tables.DefaultSeqLen)
		sl := f.Slice(row.Batch*tables.DefaultSeqLen, row.Hidden)
		xs[w.Rank()] = tensor.NewPhantom(sl.Rows, sl.Cols)
		return nil
	})
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	c.ResetClocks()
	sp = tr.begin(fam + ".fwd")
	err = c.Run(func(w *dist.Worker) error {
		blocks[w.Rank()].Forward(xs[w.Rank()])
		return nil
	})
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	fwd = c.MaxClock()
	t.agg.addOverlap(c)
	c.ResetClocks()
	sp = tr.begin(fam + ".bwd")
	err = c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		blocks[r].Forward(xs[r]) // activation recomputation, as in RunRow
		blocks[r].Backward(xs[r])
		fams[r].DrainGradients()
		return nil
	})
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	bwd = c.MaxClock()
	t.agg.addOverlap(c)
	t.agg.addStats(dist.Stats{}, c.Stats())
	t.agg.addOps(1)
	return fwd, bwd, nil
}

func (t *tablesWL) tracedPass(tr *tracer) (chunkStat, error) {
	var st chunkStat
	run := func(row tables.Row) (float64, float64, error) {
		fwd, bwd, err := t.tracedRow(row, tr)
		if err != nil {
			return 0, 0, fmt.Errorf("row %s %s: %w", row.Scheme, row.Shape(), err)
		}
		st.ops++
		st.sim += fwd + bwd
		return fwd, bwd, nil
	}
	for _, rows := range [][]tables.Row{t.t1, t.t2} {
		for _, row := range rows {
			if _, _, err := run(row); err != nil {
				return st, err
			}
		}
	}
	for _, sc := range t.scen {
		sp := tr.begin("plan.search")
		plans, err := search(sc)
		tr.end(sp)
		if err != nil {
			return st, err
		}
		_, err = plan.ValidateTop(plans, 3, func(p plan.Plan) (plan.Measurement, error) {
			row := tables.Row{GPUs: p.Grid.Ranks, Q: p.Grid.Q, D: p.Grid.D, Batch: sc.Workload.Batch, Hidden: sc.Workload.Hidden, Heads: sc.Workload.Heads}
			switch p.Family {
			case "megatron":
				row.Scheme, row.Q, row.D = tables.Megatron, 0, 0
			case "seqpar":
				row.Scheme, row.Q, row.D = tables.SeqPar, 0, 0
			case "optimus":
				row.Scheme, row.D = tables.Optimus, 0
			default:
				row.Scheme = tables.Tesseract
			}
			fwd, bwd, err := run(row)
			return plan.Measurement{Forward: fwd, Backward: bwd}, err
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// topology is the planner topology PlannerStudy searches a scenario under.
func topology(sc tables.PlannerScenario) plan.Topology {
	return plan.Topology{Cost: dist.MeluxinaModel(), GPUsPerNode: 4, RankBudget: sc.RankBudget, ExactRanks: true}
}

// search is the planner call PlannerStudy makes for a scenario.
func search(sc tables.PlannerScenario) ([]plan.Plan, error) {
	return plan.Search(sc.Workload, topology(sc), tables.DefaultAlgos())
}

// paperForwardSpeedups are the §4.1 strong-scaling claims the simulated
// speed-ups are held against: [4,4,4] forward vs Megatron [64] and vs
// Optimus [8,8].
var paperForwardSpeedups = [2]float64{1.3751, 1.5293}

func (t *tablesWL) check() ([]string, error) {
	var bad []string
	sp := tables.StrongScalingSpeedups(t.res1)
	if len(sp) < 2 {
		return nil, fmt.Errorf("Table 1 results lack the 64-GPU rows")
	}
	for i, name := range []string{"Megatron [64]", "Optimus [8,8]"} {
		if sp[i].Measured <= 1 {
			bad = append(bad, fmt.Sprintf("Tesseract [4,4,4] forward is not faster than %s (simulated speed-up %.3f)", name, sp[i].Measured))
		}
	}
	if t.top3Err > 0.25 {
		bad = append(bad, fmt.Sprintf("planner top-3 predicted-vs-measured step error %.3f > 0.25", t.top3Err))
	}
	return bad, nil
}

func (t *tablesWL) layers(lc layerCtx, put func(string, float64)) error {
	t.agg.report(put)
	rows := lc.tr.durations()["tables.row"]
	put("tables.row_wall_ms_p50", median(rows)/1e6)
	put("tables.row_wall_ms_max", percentile(rows, 1)/1e6)
	put("tables.row_allocs", median(t.allocs))
	for _, r := range t.res1 {
		if r.Row.Scheme == tables.Tesseract && r.Row.Q == 4 && r.Row.D == 4 {
			put("tables.sim_fwd_s_444", r.Measured.Forward)
			put("tables.sim_bwd_s_444", r.Measured.Backward)
		}
	}
	sp := tables.StrongScalingSpeedups(t.res1)
	put("tables.sim_speedup_vs_1d", sp[0].Measured)
	put("tables.sim_speedup_vs_2d", sp[1].Measured)
	var worst float64
	for i, paper := range paperForwardSpeedups {
		worst = math.Max(worst, math.Abs(sp[i].Measured/paper-1))
	}
	put("sim_paper_speedup_err", worst)

	// plan: the closed-form searches alone, and the replayed validation.
	sc := t.scen[0]
	var plans []plan.Plan
	put("plan.search_wall_us", 1e6*timeIt(lc.budget, func() { plans, _ = search(sc) }))
	put("plan.candidates", float64(len(plans)))
	put("plan.serving_search_wall_us", 1e6*timeIt(lc.budget, func() {
		_, _ = plan.SearchServing(sc.Workload, topology(sc), tables.DefaultAlgos(), plan.ServingObjective{})
	}))
	start := time.Now()
	if _, err := plan.ValidateTop(plans, 3, tables.MeasurePlan(sc.Workload, tables.Options{})); err != nil {
		return err
	}
	put("plan.validate_wall_ms", 1e3*time.Since(start).Seconds())
	put("plan.top3_err", t.top3Err)

	if err := cliProbes(lc, put); err != nil {
		return err
	}
	row := tables.Row{Batch: 16, Hidden: 3072, Heads: 64} // Table 1's [4,4,4] problem
	block := func(l parallel.Layout) blockSpec {
		return blockSpec{layout: l, hidden: row.Hidden, heads: row.Heads, seq: tables.DefaultSeqLen, batch: row.Batch, phantom: true}
	}
	return runProbes(probeSpec{
		world: 64, group: 4, agg: &t.agg, phantom: true,
		summa: &summaSpec{q: 4, d: 4, m: row.Batch * tables.DefaultSeqLen / 16, k: row.Hidden / 4, n: row.Hidden, phantom: true},
		blocks: []blockSpec{
			block(parallel.Layout{Family: "tesseract", Q: 4, D: 4}),
			block(parallel.Layout{Family: "optimus", Q: 8}),
			block(parallel.Layout{Family: "megatron", Ranks: 64}),
		},
	}, lc, put)
}

// cliProbes builds the two CLIs once into .bench_build and times five
// runs of each: what a reader of the README types.
func cliProbes(lc layerCtx, put func(string, float64)) error {
	out := filepath.Join(lc.root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	start := time.Now()
	build := exec.Command("go", "build", "-o", out+string(filepath.Separator), "./cmd/tesseract-bench", "./cmd/tesseract-plan")
	build.Dir = lc.root
	if msg, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building the CLIs: %w\n%s", err, msg)
	}
	put("driver.build_s", time.Since(start).Seconds())
	for name, args := range map[string][]string{
		"tesseract-bench": {"-table", "1", "-speedups"},
		"tesseract-plan":  {"-ranks", "64", "-exact", "-validate"},
	} {
		var ms []float64
		for i := 0; i < 5; i++ {
			start := time.Now()
			if msg, err := exec.Command(filepath.Join(out, name), args...).CombinedOutput(); err != nil {
				return fmt.Errorf("running %s: %w\n%s", name, err, msg)
			}
			ms = append(ms, 1e3*time.Since(start).Seconds())
		}
		put("cmd."+name+"_wall_ms", median(ms))
	}
	return nil
}

// ---------------------------------------------------------------------
// serve-mixed

type serveWL struct {
	seed    uint64
	layout  parallel.Layout
	perRung int
	fx      fixture
	srv     *serve.Server
	reports []*serve.Report // the last sweep, one per rung
	replay  *session
	clk     []*tensor.Matrix
	clks    []*tensor.Matrix
	xs      map[int]*tensor.Matrix
	ws0     []tensor.WorkspaceStats
	agg     distAgg
}

var serveConfig = serve.Config{MaxBatch: 8, LatencyBudget: 100e-6, QueueDepth: 32}

func (s *serveWL) setup() error {
	s.fx = newFixture(s.seed, 8, 64, 4, 8)
	srv, err := serve.NewServer(s.layout, s.fx.ds, s.fx.mcfg, s.fx.tc, serveConfig)
	if err != nil {
		return err
	}
	if err := srv.TrainSteps(3); err != nil {
		return err
	}
	if _, err := srv.Serve(serve.Saturated(2 * serveConfig.MaxBatch)); err != nil {
		return err
	}
	s.srv = srv
	return nil
}

func (s *serveWL) chunk(tr *tracer) (chunkStat, error) {
	var st chunkStat
	reports := make([]*serve.Report, len(serveRungs))
	for i, rate := range serveRungs {
		sp := tr.beginOp("serve.serve", s.perRung)
		rep, err := s.srv.Serve(serve.ArrivalConfig{N: s.perRung, Rate: rate, Seed: 100*s.seed + uint64(i) + 1})
		tr.end(sp)
		if err != nil {
			return st, fmt.Errorf("serving %s: %w", rungLabel(rate), err)
		}
		reports[i] = rep
		st.ops += s.perRung
		st.refused += rep.Rejected
		if rep.Admitted+rep.Rejected != s.perRung || rep.Completed != rep.Admitted {
			st.failed += s.perRung
		}
		for _, b := range rep.Batches {
			st.sim += b.Done - b.Close
		}
	}
	s.reports = reports
	return st, nil
}

// replayBatches runs every batch of the last sweep again, forward only, on
// the benchmark's own session, where the cluster's collectors (which
// serve.Server keeps to itself) can be read.
func (s *serveWL) replayBatches(tr *tracer) error {
	if s.replay == nil {
		c := dist.New(dist.Config{WorldSize: 8})
		rs, err := newSession(c, s.layout, s.fx)
		if err != nil {
			return err
		}
		s.replay, s.xs = rs, make(map[int]*tensor.Matrix)
		for r := 0; r < 8; r++ {
			s.clk = append(s.clk, tensor.New(1, 1))
			s.clks = append(s.clks, tensor.New(8, 1))
		}
		unit := s.layout.Q * s.layout.D
		for padded := unit; padded <= serveConfig.MaxBatch; padded += unit {
			idx := make([]int, padded)
			for i := range idx {
				idx[i] = i % len(s.fx.ds.Test)
			}
			s.xs[padded], _ = s.fx.ds.Batch(s.fx.ds.Test, idx)
			if err := rs.forward(s.xs[padded], s.clk, s.clks, nil); err != nil {
				return err
			}
		}
		if s.ws0, err = workspaceStats(c); err != nil {
			return err
		}
	}
	c := s.replay.c
	for _, rep := range s.reports {
		c.ResetClocks()
		before := c.Stats()
		for _, b := range rep.Batches {
			if err := s.replay.forward(s.xs[b.Padded], s.clk, s.clks, tr); err != nil {
				return err
			}
		}
		s.agg.addOps(len(rep.Requests))
		s.agg.addStats(before, c.Stats())
		s.agg.addOverlap(c)
	}
	return nil
}

func (s *serveWL) check() ([]string, error) {
	var bad []string
	ref, err := vit.NewStepBencher(s.layout, s.fx.ds, s.fx.mcfg, s.fx.tc, 0)
	if err != nil {
		return nil, err
	}
	if err := ref.TrainSteps(3); err != nil {
		return nil, err
	}
	logits, err := ref.EvalLogits(s.fx.testRows())
	if err != nil {
		return nil, err
	}
	want := tensor.ArgmaxRows(logits)
	for i, rep := range s.reports {
		wrong := 0
		for _, q := range rep.Requests {
			if !q.Rejected && q.Class != want[q.ID%len(want)] {
				wrong++
			}
		}
		if wrong > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d served classes differ from StepBencher.EvalLogits' argmax", rungLabel(serveRungs[i]), wrong))
		}
		if rep.Admitted+rep.Rejected != s.perRung {
			bad = append(bad, fmt.Sprintf("%s: admitted %d + rejected %d != offered %d", rungLabel(serveRungs[i]), rep.Admitted, rep.Rejected, s.perRung))
		}
	}
	return bad, nil
}

// servingSim reports the simulated serving results of the last sweep.
func (s *serveWL) servingSim(put func(string, float64)) {
	var waits, services []float64
	var padded, size, batches, admitted int
	maxRate := 0.0
	for i, rep := range s.reports {
		label := rungLabel(serveRungs[i])
		p99 := 1e3 * rep.P99()
		put("serve.sim_p99_ms."+label, p99)
		put("serve.rejected_frac."+label, float64(rep.Rejected)/float64(len(rep.Requests)))
		if rep.Rejected == 0 && p99 <= serveP99LimitMs {
			maxRate = serveRungs[i]
		}
		for _, q := range rep.Requests {
			if !q.Rejected {
				waits = append(waits, 1e3*q.Wait())
			}
		}
		for _, b := range rep.Batches {
			services = append(services, 1e3*(b.Done-b.Close))
			padded += b.Padded
			size += b.Size
		}
		batches += len(rep.Batches)
		admitted += rep.Admitted
	}
	put("sim_max_rate_rps", maxRate)
	limit := s.reports[serveLimitRung]
	put("sim_latency_p50_ms", 1e3*limit.P50())
	put("sim_latency_p99_ms", 1e3*limit.Percentile(tailPercentile(limit.Completed, 0.99)))
	put("serve.sim_queue_wait_ms_p50", median(waits))
	put("serve.sim_queue_wait_ms_p99", percentile(waits, tailPercentile(len(waits), 0.99)))
	put("serve.sim_service_ms_p50", median(services))
	put("serve.mean_batch", s.reports[0].MeanBatch())
	put("serve.pad_frac", float64(padded-size)/float64(padded))
	put("serve.batches_per_1k_req", 1e3*float64(batches)/float64(admitted))
}

func (s *serveWL) layers(lc layerCtx, put func(string, float64)) error {
	if err := s.replayBatches(lc.tr); err != nil {
		return err
	}
	s.servingSim(put)
	ws1, err := workspaceStats(s.replay.c)
	if err != nil {
		return err
	}
	s.agg.addWorkspace(s.ws0, ws1)
	s.agg.report(put)
	self := lc.tr.selfTimes()
	put("vit.fwd_wall_us", median(self["vit.fwd"])/1e3)
	put("vit.endstep_wall_us", median(self["vit.endstep"])/1e3)
	serves := lc.tr.durations()["serve.serve"]
	var wall float64
	for _, d := range serves {
		wall += d
	}
	sweeps := float64(len(serves)) / float64(len(serveRungs))
	var batches int
	for _, rep := range s.reports {
		batches += len(rep.Batches)
	}
	put("serve.wall_us_per_batch", wall/1e3/(sweeps*float64(batches)))

	q, d := s.layout.Q, s.layout.D
	seq, h := s.fx.mcfg.SeqLen, s.fx.mcfg.Hidden
	rows := serveConfig.MaxBatch * seq / (q * d)
	return runProbes(probeSpec{
		world: 8, group: 2, agg: &s.agg,
		gemmM: rows, gemmK: h / q, gemmN: 4 * h / q,
		softRows: rows, softCols: seq,
		summa:  &summaSpec{q: q, d: d, m: rows, k: h / q, n: 4 * h / q},
		blocks: []blockSpec{{layout: s.layout, hidden: h, heads: s.fx.mcfg.Heads, seq: seq, batch: serveConfig.MaxBatch}},
		serial: &s.fx,
	}, lc, put)
}

// ---------------------------------------------------------------------
// Probes: isolated steady-state measurements of single layers, at shapes
// and group sizes taken from the workload.

// timeIt returns the median host seconds per call of fn over five batches
// that together last about the budget.
func timeIt(budget time.Duration, fn func()) float64 {
	start := time.Now()
	fn()
	once := time.Since(start)
	iters := max(1, int(budget/5/max(once, time.Nanosecond)))
	var samples []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		samples = append(samples, time.Since(start).Seconds()/float64(iters))
	}
	return median(samples)
}

// timeRun is timeIt for work that runs on every rank of a persistent
// cluster: body runs iters rounds inside one Cluster.Run, so the spawn is
// amortised and what remains is the steady-state round.
func timeRun(c *dist.Cluster, budget time.Duration, body func(w *dist.Worker, iters int)) (float64, error) {
	run := func(iters int) (float64, error) {
		start := time.Now()
		err := c.Run(func(w *dist.Worker) error {
			body(w, iters)
			return nil
		})
		return time.Since(start).Seconds(), err
	}
	if _, err := run(1); err != nil { // first use builds pools and rounds
		return 0, err
	}
	once, err := run(1)
	if err != nil {
		return 0, err
	}
	iters := max(1, int(budget.Seconds()/5/math.Max(once, 1e-9)))
	var samples []float64
	for b := 0; b < 5; b++ {
		t, err := run(iters)
		if err != nil {
			return 0, err
		}
		samples = append(samples, t/float64(iters))
	}
	return median(samples), nil
}

type summaSpec struct {
	q, d    int
	m, k, n int // local A block is m×k, local B block k×n
	phantom bool
}

type blockSpec struct {
	layout             parallel.Layout
	hidden, heads, seq int
	batch              int
	phantom            bool
}

type probeSpec struct {
	world, group        int      // dist probes: ranks, and ranks per collective
	agg                 *distAgg // the traced pass's counts (message size, wall share)
	gemmM, gemmK, gemmN int      // local GEMM shard shape; 0 skips the tensor probes
	softRows, softCols  int
	summa               *summaSpec
	blocks              []blockSpec
	serial              *fixture // single-worker step of the same model
	phantom             bool     // the workload's collectives carry phantoms
}

func runProbes(p probeSpec, lc layerCtx, put func(string, float64)) error {
	if p.gemmM > 0 {
		tensorProbes(p, lc.budget, put)
	}
	if err := distProbes(p, lc, put); err != nil {
		return err
	}
	if p.summa != nil {
		if err := summaProbes(*p.summa, lc.budget, put); err != nil {
			return err
		}
	}
	for _, b := range p.blocks {
		if err := blockProbe(b, lc.budget, put); err != nil {
			return err
		}
	}
	if p.serial != nil {
		c := dist.New(dist.Config{WorldSize: 1})
		s, err := newSession(c, serialLayout, *p.serial)
		if err != nil {
			return err
		}
		if err := s.steps(2, nil); err != nil {
			return err
		}
		var stepErr error
		put("driver.serial_step_wall_us", 1e6*timeIt(lc.budget, func() {
			if err := s.steps(1, nil); err != nil {
				stepErr = err
			}
		}))
		return stepErr
	}
	return nil
}

func tensorProbes(p probeSpec, budget time.Duration, put func(string, float64)) {
	m, k, n := p.gemmM, p.gemmK, p.gemmN
	rng := tensor.NewRNG(1)
	a, b := tensor.RandomMatrix(m, k, rng), tensor.RandomMatrix(k, n, rng)
	bt, at := tensor.RandomMatrix(n, k, rng), tensor.RandomMatrix(k, m, rng)
	bias := tensor.RandomMatrix(1, n, rng)
	c, act := tensor.New(m, n), tensor.New(m, n)
	flops := tensor.GEMMFlops(float64(m), float64(n), float64(k))
	plain := timeIt(budget, func() { c.Zero(); tensor.MatMulInto(c, a, b) })
	put("tensor.gemm_nn_gflops", flops/plain/1e9)
	put("tensor.gemm_nt_gflops", flops/timeIt(budget, func() { c.Zero(); tensor.MatMulNTInto(c, a, bt) })/1e9)
	put("tensor.gemm_tn_gflops", flops/timeIt(budget, func() { c.Zero(); tensor.MatMulTNInto(c, at, b) })/1e9)
	fused := timeIt(budget, func() { c.Zero(); tensor.MatMulBiasGELUInto(act, c, a, b, bias) })
	put("tensor.epilogue_ns_per_elem", 1e9*(fused-plain)/float64(m*n))
	s := tensor.RandomMatrix(p.softRows, p.softCols, rng)
	sd := tensor.New(p.softRows, p.softCols)
	put("tensor.softmax_ns_per_elem", 1e9*timeIt(budget, func() { tensor.SoftmaxRowsTo(sd, s) })/float64(s.Size()))
	ws := tensor.NewWorkspace()
	put("tensor.ws_get_put_ns", 1e9*timeIt(budget, func() { ws.Put(ws.GetUninit(m, n)) }))
}

// distProbes times one rendezvous round of each collective kind on a
// persistent cluster of the workload's world size, every rank taking part
// in a group of the workload's group size, at the workload's mean message
// size; then an empty Cluster.Run; then the share of an op's host time the
// counted rounds would take at that price.
func distProbes(p probeSpec, lc layerCtx, put func(string, float64)) error {
	c := dist.New(dist.Config{WorldSize: p.world})
	g := p.group
	cols := max(1, p.agg.meanMessageElems()/g)
	round := make(map[string]float64)
	kinds := append(append([]string(nil), collectiveKinds...), "barrier")
	// Per-rank group handles and buffers, built outside the timed rounds.
	type rankBufs struct {
		grp                   *dist.Group
		base                  int
		m, part, all, rootDst *tensor.Matrix
	}
	bufs := make([]rankBufs, p.world)
	mk := tensor.New
	if p.phantom {
		mk = tensor.NewPhantom // a phantom workload moves shapes, not data
	}
	if err := c.Run(func(w *dist.Worker) error {
		base := w.Rank() / g * g
		ranks := make([]int, g)
		for i := range ranks {
			ranks[i] = base + i
		}
		b := rankBufs{grp: w.Cluster().Group(ranks...), base: base,
			m: mk(g, cols), part: mk(1, cols), all: mk(g*g, cols)}
		if w.Rank() == base {
			b.rootDst = mk(g, cols)
		}
		bufs[w.Rank()] = b
		return nil
	}); err != nil {
		return err
	}
	for _, kind := range kinds {
		sec, err := timeRun(c, lc.budget, func(w *dist.Worker, iters int) {
			b := bufs[w.Rank()]
			for i := 0; i < iters; i++ {
				switch kind {
				case "broadcast":
					if w.Rank() == b.base {
						b.grp.BroadcastInto(w, b.base, b.m, b.m)
					} else {
						b.grp.BroadcastInto(w, b.base, nil, b.m)
					}
				case "reduce":
					b.grp.ReduceInto(w, b.base, b.m, b.rootDst)
				case "allreduce":
					b.grp.AllReduceInto(w, b.m, b.m)
				case "allgather":
					b.grp.AllGatherInto(w, b.m, b.all)
				case "reducescatter":
					b.grp.ReduceScatterInto(w, b.m, b.part)
				case "barrier":
					b.grp.Barrier(w)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("probing %s: %w", kind, err)
		}
		round[kind] = sec
		put("dist.round_wall_us."+kind, 1e6*sec)
	}
	var spawnErr error
	spawn := timeIt(lc.budget, func() {
		if err := c.Run(func(*dist.Worker) error { return nil }); err != nil {
			spawnErr = err
		}
	})
	if spawnErr != nil {
		return spawnErr
	}
	put("dist.run_spawn_wall_us", 1e6*spawn)
	if p.agg.ops > 0 && lc.opWall > 0 {
		// Stats counts one call per group; each of the group's ranks spends
		// a round on it, and a rank's rounds are sequential.
		var est float64
		for _, kind := range collectiveKinds {
			perRank := float64(p.agg.kind[kind]) * float64(g) / float64(p.world) / float64(p.agg.ops)
			est += perRank * round[kind]
		}
		put("dist.est_wall_share", est/lc.opWall)
	}
	return nil
}

func summaProbes(s summaSpec, budget time.Duration, put func(string, float64)) error {
	world := s.q * s.q * s.d
	c := dist.New(dist.Config{WorldSize: world})
	procs := make([]*tesseract.Proc, world)
	mk := func(rows, cols int, seed uint64) *tensor.Matrix {
		if s.phantom {
			return tensor.NewPhantom(rows, cols)
		}
		return tensor.RandomMatrix(rows, cols, tensor.NewRNG(seed))
	}
	x, wgt, dy := make([]*tensor.Matrix, world), make([]*tensor.Matrix, world), make([]*tensor.Matrix, world)
	if err := c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		procs[r] = tesseract.NewProc(w, s.q, s.d)
		x[r], wgt[r], dy[r] = mk(s.m, s.k, uint64(3*r+1)), mk(s.k, s.n, uint64(3*r+2)), mk(s.m, s.n, uint64(3*r+3))
		return nil
	}); err != nil {
		return err
	}
	calls := []struct {
		name string
		call func(r int)
	}{
		{"ab", func(r int) { procs[r].MatMulAB(x[r], wgt[r]) }},
		{"abt", func(r int) { procs[r].MatMulABT(dy[r], wgt[r]) }},
		{"atb", func(r int) { procs[r].MatMulATB(x[r], dy[r]) }},
	}
	for _, cl := range calls {
		sec, err := timeRun(c, budget, func(w *dist.Worker, iters int) {
			for i := 0; i < iters; i++ {
				cl.call(w.Rank())
				w.Workspace().ReleaseAll()
			}
		})
		if err != nil {
			return fmt.Errorf("probing summa %s: %w", cl.name, err)
		}
		put("summa."+cl.name+"_wall_us", 1e6*sec)
	}
	c.ResetClocks()
	if err := c.Run(func(w *dist.Worker) error {
		calls[0].call(w.Rank())
		w.Workspace().ReleaseAll()
		return nil
	}); err != nil {
		return err
	}
	put("summa.sim_s_per_call", c.MaxClock())
	return nil
}

// blockProbe drives one Transformer block of a family through
// parallel.Layer, forward and backward delimited by world barriers, and
// reports rank 0's host and simulated time for each.
func blockProbe(b blockSpec, budget time.Duration, put func(string, float64)) error {
	l, err := parallel.Validate(b.layout)
	if err != nil {
		return err
	}
	c := dist.New(dist.Config{WorldSize: l.Ranks})
	fams := make([]parallel.Family, l.Ranks)
	blocks := make([]parallel.Layer, l.Ranks)
	xs, dys := make([]*tensor.Matrix, l.Ranks), make([]*tensor.Matrix, l.Ranks)
	if err := c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		fams[r] = f
		sl := f.Slice(b.batch*b.seq, b.hidden)
		if b.phantom {
			blocks[r] = f.NewBlockPhantom(b.hidden, b.heads, b.seq)
			xs[r], dys[r] = tensor.NewPhantom(sl.Rows, sl.Cols), tensor.NewPhantom(sl.Rows, sl.Cols)
			return nil
		}
		blocks[r] = f.NewBlock(b.hidden, b.heads, b.seq, tensor.NewRNG(7))
		// Replicated activations must be identical on every rank; split
		// activations get independent per-rank blocks.
		seed := uint64(100)
		if sl.Rows != b.batch*b.seq || sl.Cols != b.hidden {
			seed += uint64(r)
		}
		xs[r] = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed))
		dys[r] = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+1000))
		return nil
	}); err != nil {
		return err
	}
	var fwdWall, bwdWall, fwdSim, bwdSim float64
	run := func(iters int) error {
		fwdWall, bwdWall, fwdSim, bwdSim = 0, 0, 0, 0
		return c.Run(func(w *dist.Worker) error {
			r := w.Rank()
			world := w.Cluster().WorldGroup()
			for i := 0; i < iters; i++ {
				for _, pa := range blocks[r].Params() {
					pa.ZeroGrad()
				}
				world.Barrier(w)
				t0, c0 := time.Now(), w.Clock()
				blocks[r].Forward(xs[r])
				c1 := w.Clock()
				world.Barrier(w)
				t1, c2 := time.Now(), w.Clock()
				blocks[r].Backward(dys[r])
				fams[r].DrainGradients()
				c3 := w.Clock()
				world.Barrier(w)
				t2 := time.Now()
				fams[r].EndStep()
				if r == 0 {
					fwdWall += t1.Sub(t0).Seconds()
					bwdWall += t2.Sub(t1).Seconds()
					fwdSim, bwdSim = c1-c0, c3-c2
				}
			}
			return nil
		})
	}
	if err := run(1); err != nil {
		return fmt.Errorf("probing a %s block: %w", l, err)
	}
	iters := max(1, int(budget.Seconds()/math.Max(fwdWall+bwdWall, 1e-9)))
	if err := run(iters); err != nil {
		return fmt.Errorf("probing a %s block: %w", l, err)
	}
	put(l.Family+".block_fwd_wall_us", 1e6*fwdWall/float64(iters))
	put(l.Family+".block_bwd_wall_us", 1e6*bwdWall/float64(iters))
	// Simulated seconds from a window of their own: a clock base that
	// depends on how many iterations the host had time for would perturb
	// the low-order bits.
	c.ResetClocks()
	if err := run(1); err != nil {
		return fmt.Errorf("probing a %s block: %w", l, err)
	}
	put(l.Family+".sim_fwd_s", fwdSim)
	put(l.Family+".sim_bwd_s", bwdSim)
	return nil
}
