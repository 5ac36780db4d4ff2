package dist

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// faultCost is a small deterministic machine model for fault tests: round
// numbers so perturbed clocks can be checked exactly.
func faultCost() CostModel {
	return CostModel{FLOPS: 1e9, Alpha: 1e-6, BetaIntra: 1e-9, BetaInter: 1e-9}
}

func TestFaultPlanCheck(t *testing.T) {
	bad := []FaultPlan{
		{Ranks: []RankFault{{Rank: 4, From: 0, To: 1, Factor: 2}}},
		{Ranks: []RankFault{{Rank: 0, From: 3, To: 1, Factor: 2}}},
		{Ranks: []RankFault{{Rank: 0, From: 0, To: 1, Factor: 0.5}}},
		{Links: []LinkFault{{Rank: 1, From: 0, To: 1, BetaFactor: 0.9}}},
		{Links: []LinkFault{{Rank: 1, From: 0, To: 1, BetaFactor: 2, ExtraAlpha: -1}}},
		{Collectives: []CollectiveFault{{Rank: 0, From: 0, To: 1, Retries: -1}}},
	}
	for i, p := range bad {
		p := p
		if err := p.Check(4); err == nil {
			t.Errorf("plan %d: Check accepted an invalid plan", i)
		}
	}
	good := FaultPlan{
		Ranks:       []RankFault{{Rank: 3, From: 2, To: Forever, Factor: 4}},
		Links:       []LinkFault{{Rank: 1, From: 0, To: 9, BetaFactor: 2, ExtraAlpha: 1e-6}},
		Collectives: []CollectiveFault{{Rank: 0, From: 5, To: 6, Retries: 3, Backoff: 1e-5}},
	}
	if err := good.Check(4); err != nil {
		t.Fatalf("Check rejected a valid plan: %v", err)
	}
	if (&FaultPlan{}).Empty() != true || good.Empty() {
		t.Fatal("Empty misclassified a plan")
	}
}

func TestComputeFaultStretchesClock(t *testing.T) {
	c := New(Config{WorldSize: 2, Machine: Machine{Cost: faultCost()}, Faults: &FaultPlan{
		Ranks: []RankFault{{Rank: 1, From: 2, To: 3, Factor: 4}},
	}})
	var clocks [4][2]float64
	err := c.Run(func(w *Worker) error {
		for step := 0; step < 4; step++ {
			w.BeginStep(step)
			w.Compute(1e9) // 1 second healthy
			w.EndStep()
			clocks[step][w.Rank()] = w.clock
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 is healthy throughout: 1s per step. Rank 1 pays 4s on steps 2
	// and 3 only — the window is inclusive on both ends.
	want := [4][2]float64{{1, 1}, {2, 2}, {3, 6}, {4, 10}}
	if clocks != want {
		t.Fatalf("clocks = %v, want %v", clocks, want)
	}
}

func TestLinkFaultPerturbsCollectives(t *testing.T) {
	run := func(faults *FaultPlan) float64 {
		c := New(Config{WorldSize: 2, Machine: Machine{Cost: faultCost(), GPUsPerNode: 2}, Faults: faults})
		g := c.Group(0, 1)
		if err := c.Run(func(w *Worker) error {
			w.BeginStep(0)
			m := tensor.New(1, 128) // 1024 bytes
			g.AllReduceInto(w, m, m)
			w.EndStep()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	base := run(nil)
	const bf, ea = 3.0, 5e-6
	if got, want := run(&FaultPlan{Links: []LinkFault{{Rank: 1, From: 0, To: 0, BetaFactor: bf, ExtraAlpha: ea}}}), base*bf+ea; got != want {
		t.Errorf("perturbed collective clock = %g, want %g (base %g)", got, want, base)
	}
	// A past-window fault perturbs nothing.
	if old := run(&FaultPlan{Links: []LinkFault{{Rank: 1, From: 5, To: 9, BetaFactor: bf, ExtraAlpha: ea}}}); old != base {
		t.Errorf("past-window fault changed the clock: %g vs %g", old, base)
	}
}

func TestCollectiveFaultBackoff(t *testing.T) {
	run := func(faults *FaultPlan) float64 {
		c := New(Config{WorldSize: 2, Machine: Machine{Cost: faultCost()}, Faults: faults})
		g := c.Group(0, 1)
		if err := c.Run(func(w *Worker) error {
			w.BeginStep(0)
			g.Barrier(w)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	base := run(nil)
	const backoff = 1e-4
	// 3 retries at exponential backoff stall backoff·(2³−1) = 7·backoff.
	got := run(&FaultPlan{Collectives: []CollectiveFault{{Rank: 0, From: 0, To: 0, Retries: 3, Backoff: backoff}}})
	if want := base + 7*backoff; got != want {
		t.Fatalf("backoff clock = %g, want %g (base %g)", got, want, base)
	}
}

// TestEmptyFaultPlanBitwiseIdentity pins the core invariant at the dist
// level: a cluster with an empty plan — and one whose plan only covers
// steps that never run — produces bitwise-identical results, clocks and
// traffic stats to a bare cluster. (The three-family training-level
// identity test lives in internal/vit.)
func TestEmptyFaultPlanBitwiseIdentity(t *testing.T) {
	run := func(faults *FaultPlan) ([]float64, float64, Stats) {
		c := New(Config{WorldSize: 4, Machine: Machine{Cost: faultCost()}, Faults: faults})
		g, pair := c.WorldGroup(), c.Group(0, 1)
		out := make([]float64, 4)
		if err := c.Run(func(w *Worker) error {
			for step := 0; step < 3; step++ {
				w.BeginStep(step)
				m := tensor.New(2, 3)
				for i := range m.Data {
					m.Data[i] = float64(w.Rank()*100+i) * 1.7e-3
				}
				w.Compute(3.7e8)
				g.AllReduceInto(w, m, m)
				if pair.Index(w.Rank()) >= 0 { // rank 0 lends rank 1 a copy
					var lend *tensor.Matrix
					if w.Rank() == 0 {
						lend = m.Clone()
					}
					h := pair.IBroadcastLend(w, 0, lend)
					h.Wait()
				}
				g.Barrier(w)
				w.EndStep()
				out[w.Rank()] = m.Data[0]
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out, c.MaxClock(), c.Stats()
	}
	baseOut, baseClock, baseStats := run(nil)
	for name, p := range map[string]*FaultPlan{
		"empty": {},
		"past-window": {
			Ranks:       []RankFault{{Rank: 1, From: 100, To: 200, Factor: 8}},
			Links:       []LinkFault{{Rank: 0, From: 100, To: 200, BetaFactor: 4, ExtraAlpha: 1e-6}},
			Collectives: []CollectiveFault{{Rank: 2, From: 100, To: 200, Retries: 2, Backoff: 1e-5}},
		},
	} {
		out, clock, stats := run(p)
		if !reflect.DeepEqual(out, baseOut) {
			t.Errorf("%s plan: results %v differ from bare %v", name, out, baseOut)
		}
		if clock != baseClock {
			t.Errorf("%s plan: clock %g differs from bare %g", name, clock, baseClock)
		}
		if !reflect.DeepEqual(stats, baseStats) {
			t.Errorf("%s plan: stats %+v differ from bare %+v", name, stats, baseStats)
		}
	}
}

func TestFaultPlanRemap(t *testing.T) {
	p := &FaultPlan{
		Seed:        7,
		Ranks:       []RankFault{{Rank: 0, From: 0, To: 1, Factor: 2}, {Rank: 3, From: 0, To: 1, Factor: 4}},
		Links:       []LinkFault{{Rank: 2, From: 0, To: 1, BetaFactor: 2}},
		Collectives: []CollectiveFault{{Rank: 3, From: 0, To: 1, Retries: 1, Backoff: 1e-5}},
	}
	// Drop rank 3 (the straggler); survivors 0,1,2 keep their ids here.
	q := p.Remap([]int{0, 1, 2})
	if len(q.Ranks) != 1 || q.Ranks[0].Rank != 0 || len(q.Links) != 1 || q.Links[0].Rank != 2 || len(q.Collectives) != 0 {
		t.Fatalf("Remap([0 1 2]) = %+v", q)
	}
	// Drop rank 0: everyone shifts down one.
	q = p.Remap([]int{1, 2, 3})
	if len(q.Ranks) != 1 || q.Ranks[0].Rank != 2 || q.Links[0].Rank != 1 || q.Collectives[0].Rank != 2 {
		t.Fatalf("Remap([1 2 3]) = %+v", q)
	}
	if q.Seed != 7 {
		t.Fatalf("Remap dropped the seed")
	}
}

func TestChaosPlanDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		a := NewChaosPlan(seed, 8, 40)
		b := NewChaosPlan(seed, 8, 40)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two generations differ: %+v vs %+v", seed, a, b)
		}
		if err := a.Check(8); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
		if len(a.Ranks) != 1 {
			t.Fatalf("seed %d: want exactly one straggler, got %+v", seed, a.Ranks)
		}
		if a.Ranks[0].From < 40/4 {
			t.Fatalf("seed %d: straggler strikes at step %d, before the clean lead-in", seed, a.Ranks[0].From)
		}
	}
	if reflect.DeepEqual(NewChaosPlan(1, 8, 40), NewChaosPlan(2, 8, 40)) {
		t.Fatal("different seeds produced identical plans")
	}
}

// monitoredWorkers attaches a monitor to a fresh 4-rank cluster and returns
// it with the workers whose rings it reads, for tests that feed samples by
// hand.
func monitoredWorkers(cfg MonitorConfig) (*Monitor, []*Worker) {
	c := New(Config{WorldSize: 4})
	return c.AttachMonitor(cfg), c.workers
}

func TestMonitorStragglerDetection(t *testing.T) {
	m, ws := monitoredWorkers(MonitorConfig{Window: 8, K: 2, W: 3})
	// Cold window: no verdicts.
	if s := m.Suspects(); s != nil {
		t.Fatalf("cold monitor flagged %v", s)
	}
	// Healthy steps: everyone busy ~1s of a 1.5s step.
	step := 0
	healthy := func(n int) {
		for ; n > 0; n-- {
			for r := 0; r < 4; r++ {
				ws[r].record(step, 1.5, 1.0+0.01*float64(r))
			}
			step++
		}
	}
	slow := func(n int, rank int, factor float64) {
		for ; n > 0; n-- {
			for r := 0; r < 4; r++ {
				busy := 1.0 + 0.01*float64(r)
				if r == rank {
					busy *= factor
				}
				ws[r].record(step, busy+0.5, busy)
			}
			step++
		}
	}
	healthy(4)
	if s := m.Suspects(); s != nil {
		t.Fatalf("healthy window flagged %v", s)
	}
	m.MarkBaseline()
	// Two slow steps: hysteresis (W=3) must hold fire.
	slow(2, 2, 4)
	if s := m.Suspects(); s != nil {
		t.Fatalf("flagged %v after only 2 slow steps (W=3)", s)
	}
	slow(1, 2, 4)
	if s := m.Suspects(); len(s) != 1 || s[0] != 2 {
		t.Fatalf("Suspects = %v, want [2]", s)
	}
}

func TestMonitorEffectiveCost(t *testing.T) {
	base := faultCost()
	m, ws := monitoredWorkers(MonitorConfig{})
	step := 0
	feed := func(n int, busyScale, waitScale float64) {
		for ; n > 0; n-- {
			for r := 0; r < 4; r++ {
				busy := busyScale * (1.0 + 0.001*float64(r))
				wait := waitScale * 0.25
				ws[r].record(step, busy+wait, busy)
			}
			step++
		}
	}
	feed(8, 1, 1)
	m.MarkBaseline()
	// No degradation: the model comes back unchanged.
	if got := m.EffectiveCost(base, []int{0, 1, 2, 3}); got != base {
		t.Fatalf("healthy EffectiveCost changed the model: %+v", got)
	}
	// Uniform 2× compute inflation and 3× wait inflation.
	feed(8, 2, 3)
	got := m.EffectiveCost(base, []int{0, 1, 2, 3})
	if ratio := base.FLOPS / got.FLOPS; ratio < 1.9 || ratio > 2.1 {
		t.Errorf("FLOPS deflation = %g, want ~2", ratio)
	}
	if ratio := got.BetaInter / base.BetaInter; ratio < 2.9 || ratio > 3.1 {
		t.Errorf("beta inflation = %g, want ~3", ratio)
	}
}

func TestMonitorRecordingDoesNotPerturbClocks(t *testing.T) {
	run := func(attach bool) float64 {
		c := New(Config{WorldSize: 4, Machine: Machine{Cost: faultCost()}})
		if attach {
			c.AttachMonitor(MonitorConfig{})
		}
		g := c.WorldGroup()
		if err := c.Run(func(w *Worker) error {
			for step := 0; step < 5; step++ {
				w.BeginStep(step)
				w.Compute(1e8)
				m := tensor.New(4, 4)
				g.AllReduceInto(w, m, m)
				w.EndStep()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	if bare, monitored := run(false), run(true); bare != monitored {
		t.Fatalf("attaching a monitor moved the clock: %g vs %g", monitored, bare)
	}
}
