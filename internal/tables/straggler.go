package tables

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/vit"
)

// StragglerPoint is one row of the gray-failure study: a family/layout pair
// hit by a compute straggler of a given severity, priced both ways — ride
// the degradation out, or detect it, checkpoint, and re-layout onto the
// healthy ranks.
type StragglerPoint struct {
	// From is the layout training started on; To is what the watchdog moved
	// to (equal to From when it rode the fault out).
	From, To parallel.Layout
	// Factor is the compute slowdown injected on the last rank.
	Factor float64
	// DetectedStep is when the watchdog flagged the straggler (-1: never).
	DetectedStep int
	// RelayoutStep is when training moved to To (-1: rode it out).
	RelayoutStep int
	// RodeOut reports the watchdog decided to stay put; RideOutReason says
	// why (payback, no feasible layout, ...).
	RodeOut       bool
	RideOutReason string
	// HealthyStepSeconds and DegradedStepSeconds bracket the fault's cost:
	// cluster step time before the fault vs in the detection window.
	HealthyStepSeconds, DegradedStepSeconds float64
	// AdaptiveSeconds is the total simulated time of the watchdog run
	// (including checkpoint collect and re-shard restore when it moved);
	// RideOutSeconds is the same run with no watchdog, dragging the
	// straggler to the end.
	AdaptiveSeconds, RideOutSeconds float64
	// Speedup is RideOutSeconds / AdaptiveSeconds — above 1, re-laying-out
	// beat riding it out.
	Speedup float64
	// MaxLossDev is the largest deviation of the watchdog run's loss curve
	// from uninterrupted references (pre-relayout steps against From,
	// post-relayout against To) — the ≤1e-8 continuity witness.
	MaxLossDev float64
}

// stragglerCost is the machine model the study prices faults against. The
// study's fixture is the tiny real-data ViT, whose per-step arithmetic is
// far too small to register at accelerator FLOPS — at the Meluxina preset
// the run is α-dominated and a compute straggler would be invisible in the
// step clock. Scaling FLOPS down (and α with it) makes the fixture
// compute-bound the way the paper's real workloads are, so slowdown factors
// surface in step time at their nominal magnitude.
func stragglerCost() dist.CostModel {
	return dist.CostModel{FLOPS: 1e8, Alpha: 1e-7, BetaIntra: 1.0 / 250e9, BetaInter: 1.0 / 6.25e9}
}

// StragglerFactors are the slowdown severities the study sweeps, as in the
// gray-failure literature: barely-sick, clearly sick, nearly dead.
var StragglerFactors = []float64{2, 4, 8}

// StragglerStudy prices each severity on every default family layout: the
// last rank slows down after a clean probe window, and the watchdog either
// re-lays-out onto the healthy ranks or rides it out when the payback is
// not there. The loss-deviation column doubles as the correctness witness —
// gray faults and re-layouts move clocks, never arithmetic.
func StragglerStudy() ([]StragglerPoint, error) {
	ds, mcfg, tc := elasticFixture()
	const totalSteps, probe = 24, 6
	// As in the elastic study: the model must stay distributed.
	budget, err := plan.DistributedBudget(mcfg.Workload(tc.BatchSize), DefaultAlgos())
	if err != nil {
		return nil, fmt.Errorf("tables: straggler study: %w", err)
	}
	topo := plan.Topology{Cost: stragglerCost(), MemoryBudget: budget}
	var out []StragglerPoint
	for _, from := range DefaultFamilyLayouts() {
		from, err := from.Normalize()
		if err != nil {
			return nil, fmt.Errorf("tables: straggler study: %w", err)
		}
		for _, factor := range StragglerFactors {
			fp := &dist.FaultPlan{Ranks: []dist.RankFault{{
				Rank: from.Ranks - 1, From: probe, To: dist.Forever, Factor: factor,
			}}}
			run, err := vit.TrainAdaptive(from, vit.AdaptiveConfig{
				TotalSteps: totalSteps,
				Probe:      probe,
				// K 1.5 keeps the 2× straggler detectable: its busy time
				// includes sends the slowdown does not stretch, so the
				// busy ratio lands just under the nominal factor.
				Monitor:  dist.MonitorConfig{Window: probe, K: 1.5, W: 3},
				Faults:   fp,
				Algos:    DefaultAlgos(),
				Topology: topo,
			}, ds, mcfg, tc)
			if err != nil {
				return nil, fmt.Errorf("tables: straggler study %s ×%g: %w", from, factor, err)
			}
			rideOut, err := vit.TrainFaulty(from, fp, stragglerCost(), ds, mcfg, tc, totalSteps)
			if err != nil {
				return nil, fmt.Errorf("tables: straggler ride-out %s ×%g: %w", from, factor, err)
			}
			dev, err := stragglerLossDev(run, ds, mcfg, tc, totalSteps)
			if err != nil {
				return nil, err
			}
			out = append(out, StragglerPoint{
				From:                run.From,
				To:                  run.To,
				Factor:              factor,
				DetectedStep:        run.DetectedStep,
				RelayoutStep:        run.RelayoutStep,
				RodeOut:             run.RodeOut,
				RideOutReason:       run.RideOutReason,
				HealthyStepSeconds:  run.HealthyStepSeconds,
				DegradedStepSeconds: run.DegradedStepSeconds,
				AdaptiveSeconds:     run.TotalSeconds,
				RideOutSeconds:      rideOut.Seconds,
				Speedup:             rideOut.Seconds / run.TotalSeconds,
				MaxLossDev:          dev,
			})
		}
	}
	return out, nil
}

// stragglerLossDev compares a watchdog run's loss curve against
// uninterrupted references: steps before the re-layout against the original
// layout, steps after it against the new one.
func stragglerLossDev(run *vit.AdaptiveRun, ds *vit.Dataset, mcfg vit.ModelConfig, tc vit.TrainConfig, total int) (float64, error) {
	cut := run.RelayoutStep
	if cut < 0 {
		cut = total
	}
	var dev float64
	refFrom, err := vit.TrainLayoutSteps(run.From, ds, mcfg, tc, cut)
	if err != nil {
		return 0, fmt.Errorf("tables: straggler reference %s: %w", run.From, err)
	}
	for s := 0; s < cut; s++ {
		dev = math.Max(dev, math.Abs(run.Losses[s]-refFrom[s]))
	}
	if cut < total {
		refTo, err := vit.TrainLayoutSteps(run.To, ds, mcfg, tc, total)
		if err != nil {
			return 0, fmt.Errorf("tables: straggler reference %s: %w", run.To, err)
		}
		for s := cut; s < total; s++ {
			dev = math.Max(dev, math.Abs(run.Losses[s]-refTo[s]))
		}
	}
	return dev, nil
}

// FormatStraggler renders the gray-failure study.
func FormatStraggler(points []StragglerPoint) string {
	var b strings.Builder
	b.WriteString("Gray failures: compute straggler on the last rank — detect, re-layout, or ride out\n")
	fmt.Fprintf(&b, "%-18s %4s | %6s %8s | %10s %10s | %-18s %9s %9s | %7s %10s\n",
		"layout", "slow", "detect", "relayout", "healthy", "degraded", "outcome", "adaptive", "ride-out", "speedup", "max|Δloss|")
	for _, p := range points {
		outcome := p.To.String()
		if p.RodeOut {
			outcome = "rode out"
		}
		relayout := fmt.Sprintf("%8d", p.RelayoutStep)
		if p.RelayoutStep < 0 {
			relayout = fmt.Sprintf("%8s", "-")
		}
		fmt.Fprintf(&b, "%-18s %3g× | %6d %s | %9.3gs %9.3gs | %-18s %8.3gs %8.3gs | %6.2f× %10.2g\n",
			p.From, p.Factor, p.DetectedStep, relayout,
			p.HealthyStepSeconds, p.DegradedStepSeconds,
			outcome, p.AdaptiveSeconds, p.RideOutSeconds, p.Speedup, p.MaxLossDev)
	}
	b.WriteString("adaptive time counts the checkpoint collect and re-shard restore; ride-out drags the\n")
	b.WriteString("straggler to the last step; max|Δloss| compares against uninterrupted runs per layout.\n")
	return b.String()
}
