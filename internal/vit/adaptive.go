package vit

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// FaultyRun is the outcome of a TrainFaulty ride-out: the per-step loss
// curve, the total simulated seconds, and the traffic statistics. Because
// fault plans perturb only the simulated clock, Losses is bit-identical to
// an unperturbed run at the same layout — only Seconds grows.
type FaultyRun struct {
	Losses  []float64
	Seconds float64
	Stats   dist.Stats
}

// TrainFaulty trains at one fixed layout for a flat number of steps on a
// cluster of the given machine with the given fault plan installed, riding out
// whatever the plan does. It is both the ride-it-out baseline the
// StragglerStudy prices TrainAdaptive against and — with a nil or empty plan —
// the unperturbed reference the zero-perturbation identity tests compare clocks
// and stats to bit-for-bit.
func TrainFaulty(l parallel.Layout, faults *dist.FaultPlan, m dist.Machine,
	ds *Dataset, mcfg ModelConfig, tc TrainConfig, total int) (*FaultyRun, error) {
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	c := dist.New(dist.Config{WorldSize: l.Ranks, Machine: m, Faults: faults})
	defer c.Close()
	s, err := NewSession(c, l, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	losses, err := s.Train(total)
	if err != nil {
		return nil, err
	}
	return &FaultyRun{Losses: losses, Seconds: c.MaxClock(), Stats: c.Stats()}, nil
}

// AdaptiveConfig controls a TrainAdaptive run: the fault schedule under
// test, the detector tuning, the replanner's candidates and machine, and
// the break-even policy.
type AdaptiveConfig struct {
	// TotalSteps is the run length (≥ 1).
	TotalSteps int
	// Monitor tunes the straggler detector (zero fields take the
	// dist.MonitorConfig defaults: window 8, K 2, W 3). Its window is also
	// how many steps the watchdog trains before it consults the monitor;
	// detection and re-layout happen only at window boundaries, where
	// reading the telemetry is race-free.
	Monitor dist.MonitorConfig
	// Faults is the gray-failure schedule installed on the cluster; it
	// follows the healthy ranks through a re-layout via FaultPlan.Remap.
	// Nil runs clean (and the watchdog then never fires).
	Faults *dist.FaultPlan
	// Algos are the planner candidates a re-layout searches over.
	Algos []plan.Algo
	// Topology describes the machine as specced; on detection its cost
	// model is replaced by the monitor's measured EffectiveCost before
	// replanning. RankBudget is overwritten with the healthy count.
	Topology plan.Topology
}

// reshardSteps prices a checkpoint+reshard in healthy training steps
// (BenchmarkReshard's reshard_cost_ratio measures it): a re-layout happens
// only when the modeled per-step gain over the remaining steps pays it back.
const reshardSteps = 10

// AdaptiveRun is the outcome of one watchdog training run.
type AdaptiveRun struct {
	// From is the starting layout; To the layout the run finished at (equal
	// to From when it rode the degradation out or never detected one).
	From, To parallel.Layout
	// Losses is the full per-step loss curve: steps before RelayoutStep
	// trained at From, the rest at To.
	Losses []float64

	// DetectedStep is the global step count completed when the detector
	// first flagged a suspect (−1: never). Suspects are the flagged ranks.
	DetectedStep int
	Suspects     []int

	// RelayoutStep is the first step trained at To (−1 if the run never
	// re-laid-out). RodeOut reports that a degradation was detected but the
	// policy chose to stay, for RideOutReason.
	RelayoutStep  int
	RodeOut       bool
	RideOutReason string

	// HealthyStepSeconds is the measured per-step cost of the first
	// (assumed clean) window — the break-even yardstick. On detection,
	// DegradedStepSeconds is the measured per-step cost of the sick
	// cluster, and PredictedStepSeconds the modeled cost at To.
	HealthyStepSeconds   float64
	DegradedStepSeconds  float64
	PredictedStepSeconds float64

	// CollectSeconds and RestoreSeconds price the re-layout itself: the
	// buddy exchange on the degraded cluster and the re-shard on the
	// healthy one. Zero when no re-layout happened.
	CollectSeconds, RestoreSeconds float64

	// TotalSeconds is the end-to-end simulated time: training, checkpoint,
	// re-shard and all — the number the StragglerStudy compares against the
	// ride-it-out baseline.
	TotalSeconds float64
}

// TrainAdaptive is the gray-failure watchdog loop: train in monitor windows,
// read the monitor between them, and on sustained straggler detection
// checkpoint, replan over the healthy subset priced at the measured
// effective cost model, re-shard, and resume — but only when the modeled
// payback beats the re-shard bill; otherwise ride the degradation out.
//
// Because fault plans never touch arithmetic and checkpoint re-shards are
// bitwise, the returned loss curve matches an uninterrupted healthy run
// (at From before RelayoutStep, at To after) within the usual cross-layout
// 1e-8 reduction-order tolerance, whatever the plan did to the clock.
func TrainAdaptive(from parallel.Layout, cfg AdaptiveConfig, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (*AdaptiveRun, error) {
	from, err := parallel.Validate(from)
	if err != nil {
		return nil, err
	}
	if cfg.TotalSteps < 1 {
		return nil, fmt.Errorf("vit: adaptive needs TotalSteps ≥ 1, got %d", cfg.TotalSteps)
	}
	if len(cfg.Algos) == 0 {
		return nil, fmt.Errorf("vit: adaptive replan needs planner algos")
	}
	run := &AdaptiveRun{
		From: from, To: from,
		Losses:       make([]float64, 0, cfg.TotalSteps),
		DetectedStep: -1, RelayoutStep: -1,
	}
	newCluster := func(world int, faults *dist.FaultPlan) *dist.Cluster {
		return dist.New(dist.Config{WorldSize: world, Machine: cfg.Topology.Machine(), Faults: faults})
	}

	c := newCluster(from.Ranks, cfg.Faults)
	defer c.Close()
	mon := c.AttachMonitor(cfg.Monitor)
	window := mon.Config().Window
	s, err := NewSession(c, from, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	wl := s.Workload()

	for len(run.Losses) < cfg.TotalSteps {
		losses, err := s.Train(min(window, cfg.TotalSteps-len(run.Losses)))
		if err != nil {
			return nil, err
		}
		run.Losses = append(run.Losses, losses...)
		step, cur := len(run.Losses), s.l

		// The watchdog reads the monitor only here, between cluster runs,
		// where the per-rank telemetry shards are quiescent.
		if !mon.Baselined() {
			mon.MarkBaseline()
			if run.HealthyStepSeconds == 0 {
				run.HealthyStepSeconds = mon.BaselineStepSeconds()
			}
			continue
		}
		// A run re-lays-out at most once.
		if step >= cfg.TotalSteps || run.RelayoutStep >= 0 || cur.Ranks != s.c.WorldSize() {
			continue
		}
		suspects := mon.Suspects()
		if len(suspects) == 0 || len(suspects) >= cur.Ranks {
			continue
		}
		if run.DetectedStep < 0 {
			run.DetectedStep = step
			run.Suspects = suspects
		}

		// Demote the suspects: replan over the healthy subset, priced at
		// the cost model the monitor measured, not the one on the spec
		// sheet.
		sick := make(map[int]bool, len(suspects))
		for _, r := range suspects {
			sick[r] = true
		}
		healthy := make([]int, 0, cur.Ranks-len(suspects))
		for r := 0; r < cur.Ranks; r++ {
			if !sick[r] {
				healthy = append(healthy, r)
			}
		}
		topo := cfg.Topology
		topo.Cost = mon.EffectiveCost(s.c.Machine().Cost, healthy)
		to, err := s.Replan(topo, cfg.Algos, len(healthy))
		if err != nil {
			var nf *plan.NoFeasibleError
			if errors.As(err, &nf) {
				// Nothing the healthy subset can run: ride the straggler
				// out at the current layout.
				run.RodeOut = true
				run.RideOutReason = fmt.Sprintf("no feasible layout on %d healthy ranks: %v", len(healthy), nf.Err)
				continue
			}
			return nil, err
		}

		// Break-even: estimate the per-step seconds the new layout would
		// run at by scaling the measured healthy baseline with the analytic
		// cost ratio, and re-layout only if the gain over the remaining
		// steps pays for the re-shard.
		degraded := mon.ClusterStepSeconds()
		run.DegradedStepSeconds = degraded
		// The current layout is priced under the spec-sheet cost (its
		// healthy baseline was measured on a healthy cluster); the candidate
		// under the measured effective cost of the ranks it would run on.
		predFrom, err := plan.Price(wl, cur, cfg.Topology)
		if err != nil {
			return nil, err
		}
		predTo, err := plan.Price(wl, to, topo)
		if err != nil {
			return nil, err
		}
		estNew := run.HealthyStepSeconds
		if predFrom.Step() > 0 {
			estNew = run.HealthyStepSeconds * predTo.Step() / predFrom.Step()
		}
		run.PredictedStepSeconds = estNew
		gain := degraded - estNew
		remaining := float64(cfg.TotalSteps - step)
		reshardBill := reshardSteps * run.HealthyStepSeconds
		if gain <= 0 {
			run.RodeOut = true
			run.RideOutReason = fmt.Sprintf("%s on %d healthy ranks models %.3gs/step, no better than the degraded %.3gs",
				to, len(healthy), estNew, degraded)
			continue
		}
		if gain*remaining <= reshardBill {
			run.RodeOut = true
			run.RideOutReason = fmt.Sprintf("payback %.3gs over %d remaining steps does not cover the %.3gs re-shard",
				gain*remaining, int(remaining), reshardBill)
			continue
		}

		// Re-layout: checkpoint on the live (degraded) cluster, rebuild
		// over the healthy ranks, re-shard, resume. Every phase is charged
		// to the clock that TotalSeconds accumulates.
		c2 := newCluster(len(healthy), cfg.Faults.Remap(healthy))
		defer c2.Close() // at most one re-layout per run
		mon = c2.AttachMonitor(cfg.Monitor)
		next, collect, restore, err := s.Relayout(c2, to, healthy...)
		if err != nil {
			return nil, err
		}
		run.CollectSeconds, run.RestoreSeconds = collect, restore
		run.TotalSeconds += s.c.MaxClock()
		s = next
		run.To = to
		run.RelayoutStep = step
		run.RodeOut, run.RideOutReason = false, ""
	}
	run.TotalSeconds += s.c.MaxClock()
	return run, nil
}
