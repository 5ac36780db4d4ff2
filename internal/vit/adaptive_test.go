package vit

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// computeBoundCost is a machine model where compute dominates the tiny test
// fixture's step time, so a compute straggler is visible in the step clock
// (at Meluxina FLOPS the 16-wide ViT is α-dominated and a 4× slowdown would
// vanish into the collective latency).
func computeBoundCost() dist.CostModel {
	return dist.CostModel{FLOPS: 1e8, Alpha: 1e-7, BetaIntra: 1.0 / 250e9, BetaInter: 1.0 / 6.25e9}
}

// stragglerPlan slows one rank by factor from step `from` onwards.
func stragglerPlan(rank, from int, factor float64) *dist.FaultPlan {
	return &dist.FaultPlan{Ranks: []dist.RankFault{{Rank: rank, From: from, To: dist.Forever, Factor: factor}}}
}

func adaptiveTopology(mcfg ModelConfig, tc TrainConfig) plan.Topology {
	t := elasticTopology(mcfg, tc)
	t.Cost = computeBoundCost()
	return t
}

// TestTrainFaultyStragglerStretchesClock checks the other half of the
// invariant: a straggler changes the clock but not one bit of the losses.
func TestTrainFaultyStragglerStretchesClock(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const total = 6
	l := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	cost := dist.Machine{Cost: computeBoundCost()}
	bare, err := TrainFaulty(l, nil, cost, ds, mcfg, tc, total)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := TrainFaulty(l, stragglerPlan(7, 2, 4), cost, ds, mcfg, tc, total)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slow.Losses, bare.Losses) {
		t.Errorf("straggler changed the losses:\n%v\n%v", slow.Losses, bare.Losses)
	}
	if slow.Seconds <= bare.Seconds*1.5 {
		t.Errorf("4× straggler from step 2 of %d barely moved the clock: %g vs %g", total, slow.Seconds, bare.Seconds)
	}
	if !reflect.DeepEqual(slow.Stats, bare.Stats) {
		t.Errorf("straggler changed the traffic statistics")
	}
}

// TestTrainAdaptiveRelayout is the acceptance-criterion scenario: a 4×
// compute straggler strikes after a clean first window; the watchdog must
// detect it, demote it, re-layout onto the healthy ranks, finish with a
// loss curve within 1e-8 of the uninterrupted references, and beat the
// ride-it-out baseline on total simulated seconds.
func TestTrainAdaptiveRelayout(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const total, probe, failFrom = 24, 6, 6
	from := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	fp := stragglerPlan(7, failFrom, 4)
	cfg := AdaptiveConfig{
		TotalSteps: total,
		Monitor:    dist.MonitorConfig{Window: probe, K: 2, W: 3},
		Faults:     fp,
		Algos:      elasticAlgos(),
		Topology:   adaptiveTopology(mcfg, tc),
	}
	run, err := TrainAdaptive(from, cfg, ds, mcfg, tc)
	if err != nil {
		t.Fatalf("TrainAdaptive: %v", err)
	}
	if run.DetectedStep < 0 {
		t.Fatal("watchdog never detected the straggler")
	}
	if len(run.Suspects) != 1 || run.Suspects[0] != 7 {
		t.Errorf("Suspects = %v, want [7]", run.Suspects)
	}
	if run.RelayoutStep < 0 || run.RodeOut {
		t.Fatalf("no re-layout: RelayoutStep=%d RodeOut=%v (%s)", run.RelayoutStep, run.RodeOut, run.RideOutReason)
	}
	if run.To.Ranks > 7 {
		t.Errorf("re-layout %s uses %d ranks, only 7 are healthy", run.To, run.To.Ranks)
	}
	if run.DegradedStepSeconds < 2*run.HealthyStepSeconds {
		t.Errorf("degraded step %.3gs not clearly above healthy %.3gs — fixture not compute-bound?",
			run.DegradedStepSeconds, run.HealthyStepSeconds)
	}
	if run.CollectSeconds <= 0 || run.RestoreSeconds <= 0 {
		t.Errorf("re-layout cost accounting not positive: collect=%g restore=%g", run.CollectSeconds, run.RestoreSeconds)
	}

	// Loss curve: before the re-layout it must match an uninterrupted run
	// at From exactly (same layout, same arithmetic — the fault plan may
	// only move clocks); after it, the usual cross-layout 1e-8.
	refFrom, err := TrainLayoutSteps(from, ds, mcfg, tc, run.RelayoutStep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < run.RelayoutStep; i++ {
		if run.Losses[i] != refFrom[i] {
			t.Errorf("step %d (pre-relayout): loss %.17g != uninterrupted %.17g", i, run.Losses[i], refFrom[i])
		}
	}
	refTo, err := TrainLayoutSteps(run.To, ds, mcfg, tc, total)
	if err != nil {
		t.Fatal(err)
	}
	for i := run.RelayoutStep; i < total; i++ {
		if d := math.Abs(run.Losses[i] - refTo[i]); d > 1e-8 {
			t.Errorf("step %d (post-relayout): loss %.12f vs uninterrupted %.12f (|Δ|=%.3g)", i, run.Losses[i], refTo[i], d)
		}
	}

	// And the whole point: adapting must beat riding the straggler out.
	rideOut, err := TrainFaulty(from, fp, dist.Machine{Cost: computeBoundCost()}, ds, mcfg, tc, total)
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalSeconds >= rideOut.Seconds {
		t.Errorf("adaptive run (%.4gs) did not beat ride-out (%.4gs)", run.TotalSeconds, rideOut.Seconds)
	}
	t.Logf("healthy %.3gs/step, degraded %.3gs/step; %s → %s at step %d; adaptive %.4gs vs ride-out %.4gs",
		run.HealthyStepSeconds, run.DegradedStepSeconds, run.From, run.To, run.RelayoutStep,
		run.TotalSeconds, rideOut.Seconds)
}

// TestTrainAdaptiveRideOutOnPayback: when the re-shard bill cannot be paid
// back (here: the straggler is detected at step 12 of 13, and one remaining
// step cannot repay ten), the watchdog detects but stays put — and the loss
// curve is bit-identical to a clean run, because gray faults never touch
// arithmetic.
func TestTrainAdaptiveRideOutOnPayback(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const total, probe = 13, 6
	from := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	cfg := AdaptiveConfig{
		TotalSteps: total,
		Monitor:    dist.MonitorConfig{Window: probe, K: 2, W: 3},
		Faults:     stragglerPlan(7, probe, 4),
		Algos:      elasticAlgos(),
		Topology:   adaptiveTopology(mcfg, tc),
	}
	run, err := TrainAdaptive(from, cfg, ds, mcfg, tc)
	if err != nil {
		t.Fatalf("TrainAdaptive: %v", err)
	}
	if run.DetectedStep != total-1 {
		t.Fatalf("DetectedStep = %d, want %d: one remaining step", run.DetectedStep, total-1)
	}
	if !run.RodeOut || run.RelayoutStep >= 0 || run.To != run.From {
		t.Fatalf("expected a ride-out, got RelayoutStep=%d RodeOut=%v To=%s", run.RelayoutStep, run.RodeOut, run.To)
	}
	if !strings.Contains(run.RideOutReason, "re-shard") {
		t.Errorf("ride-out reason %q does not name the payback policy", run.RideOutReason)
	}
	ref, err := TrainLayoutSteps(from, ds, mcfg, tc, total)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run.Losses, ref) {
		t.Errorf("ride-out losses differ from the clean run")
	}
}

// TestTrainAdaptiveNoFeasibleRideOut: when the healthy subset cannot run
// anything (memory budget below every candidate), the watchdog reports the
// structured no-feasible cause as its ride-out reason instead of failing.
func TestTrainAdaptiveNoFeasibleRideOut(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	const total, probe = 18, 6
	from := parallel.Layout{Family: "tesseract", Q: 2, D: 2}
	topo := adaptiveTopology(mcfg, tc)
	topo.MemoryBudget = 1 // nothing fits
	run, err := TrainAdaptive(from, AdaptiveConfig{
		TotalSteps: total,
		Monitor:    dist.MonitorConfig{Window: probe, K: 2, W: 3},
		Faults:     stragglerPlan(7, probe, 4),
		Algos:      elasticAlgos(),
		Topology:   topo,
	}, ds, mcfg, tc)
	if err != nil {
		t.Fatalf("TrainAdaptive: %v", err)
	}
	if !run.RodeOut || run.RelayoutStep >= 0 {
		t.Fatalf("expected a no-feasible ride-out, got RelayoutStep=%d RodeOut=%v", run.RelayoutStep, run.RodeOut)
	}
	if !strings.Contains(run.RideOutReason, "no feasible layout") {
		t.Errorf("ride-out reason %q does not carry the no-feasible cause", run.RideOutReason)
	}
}

// TestTrainElasticSurfacesNoFeasible pins the satellite contract: when the
// survivors cannot satisfy the memory budget, TrainElastic's error exposes
// the structured *plan.NoFeasibleError to errors.As/Is rather than an
// anonymous message.
func TestTrainElasticSurfacesNoFeasible(t *testing.T) {
	ds, mcfg := tinyData()
	tc := elasticTC()
	topo := elasticTopology(mcfg, tc)
	topo.MemoryBudget = 1
	_, err := TrainElastic(parallel.Layout{Family: "tesseract", Q: 2, D: 1}, ElasticConfig{
		FailStep:   1,
		TotalSteps: 3,
		FailRank:   -1,
		Algos:      elasticAlgos(),
		Topology:   topo,
	}, ds, mcfg, tc)
	if err == nil {
		t.Fatal("TrainElastic succeeded with a 1-byte memory budget")
	}
	var nf *plan.NoFeasibleError
	if !errors.As(err, &nf) {
		t.Fatalf("error %v does not expose *plan.NoFeasibleError", err)
	}
	if nf.Surviving != 3 {
		t.Errorf("NoFeasibleError.Surviving = %d, want 3", nf.Surviving)
	}
	if !errors.Is(err, plan.ErrNoFeasible) {
		t.Errorf("error %v does not wrap plan.ErrNoFeasible", err)
	}
}
