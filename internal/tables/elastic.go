package tables

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/vit"
)

// ElasticPoint is one row of the elastic study: a family/layout pair taken
// through the full loop — train, checkpoint, lose a rank, replan, re-shard,
// resume — with the re-shard cost put next to the step cost it competes
// with.
type ElasticPoint struct {
	// From is the layout training started on; To is the layout the replan
	// picked for the survivors.
	From, To parallel.Layout
	// FailedRank and FailClock are the structured abort cause.
	FailedRank int
	FailClock  float64
	// CollectSeconds and RestoreSeconds are the simulated costs of the
	// checkpoint snapshot and the re-shard onto To.
	CollectSeconds, RestoreSeconds float64
	// StepSeconds is the steady training-step cost at To.
	StepSeconds float64
	// ReshardRatio is (collect + restore) / step: how many training steps
	// one full re-shard costs.
	ReshardRatio float64
	// MaxLossDev is the largest deviation of the post-reshard loss curve
	// from an uninterrupted run at To — the ≤1e-8 continuity check.
	MaxLossDev float64
}

// ElasticStudy runs the elastic loop for every default family layout on the
// tiny real-data ViT: inject a rank loss mid-training, recover, and measure
// what the re-shard cost buys relative to just stepping. The loss-curve
// deviation column doubles as the correctness witness — re-sharding is a
// no-op for the training trajectory.
func ElasticStudy() ([]ElasticPoint, error) {
	ds, mcfg, tc := elasticFixture()
	const failStep, totalSteps = 2, 4
	// The usual elastic constraint: the model no longer fits on one survivor,
	// so the replan must keep a genuinely distributed layout.
	budget, err := plan.DistributedBudget(mcfg.Workload(tc.BatchSize), DefaultAlgos())
	if err != nil {
		return nil, fmt.Errorf("tables: elastic study: %w", err)
	}
	topo := plan.Topology{MemoryBudget: budget}
	var out []ElasticPoint
	for _, from := range DefaultFamilyLayouts() {
		run, err := vit.TrainElastic(from, vit.ElasticConfig{
			FailStep:   failStep,
			TotalSteps: totalSteps,
			FailRank:   -1,
			Algos:      DefaultAlgos(),
			Topology:   topo,
		}, ds, mcfg, tc)
		if err != nil {
			return nil, fmt.Errorf("tables: elastic study %s: %w", from, err)
		}
		ref, err := vit.TrainLayoutSteps(run.To, ds, mcfg, tc, totalSteps)
		if err != nil {
			return nil, fmt.Errorf("tables: elastic reference %s: %w", run.To, err)
		}
		var dev float64
		for s := failStep; s < totalSteps; s++ {
			dev = math.Max(dev, math.Abs(run.Losses[s]-ref[s]))
		}
		out = append(out, ElasticPoint{
			From:           run.From,
			To:             run.To,
			FailedRank:     run.Failure.Rank,
			FailClock:      run.Failure.Clock,
			CollectSeconds: run.CollectSeconds,
			RestoreSeconds: run.RestoreSeconds,
			StepSeconds:    run.StepSeconds,
			ReshardRatio:   (run.CollectSeconds + run.RestoreSeconds) / run.StepSeconds,
			MaxLossDev:     dev,
		})
	}
	return out, nil
}

// elasticFixture is the tiny real-data training setup the elastic study
// shares with the cross-family tests: small enough to run every layout in a
// test, divisible enough for every default family.
func elasticFixture() (*vit.Dataset, vit.ModelConfig, vit.TrainConfig) {
	dcfg := vit.DataConfig{
		Classes: 4, ImageSize: 8, Channels: 3, PatchSize: 4,
		Train: 8, Test: 4, Noise: 0.3, Seed: 11,
	}
	ds := vit.NewDataset(dcfg)
	mcfg := vit.ModelConfig{
		PatchDim: dcfg.PatchDim(),
		SeqLen:   dcfg.Patches(),
		Hidden:   16,
		Heads:    4,
		Layers:   2,
		Classes:  dcfg.Classes,
		Seed:     3,
	}
	tc := vit.TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 21}
	return ds, mcfg, tc
}

// FormatElastic renders the elastic study.
func FormatElastic(points []ElasticPoint) string {
	var b strings.Builder
	b.WriteString("Elastic re-layout: lose a rank mid-training, replan, re-shard, resume\n")
	fmt.Fprintf(&b, "%-18s %-18s | %5s %9s | %10s %10s %10s | %9s %10s\n",
		"from", "to (replanned)", "dead", "at", "collect", "restore", "step", "reshard/", "max|Δloss|")
	fmt.Fprintf(&b, "%-18s %-18s | %5s %9s | %10s %10s %10s | %9s %10s\n",
		"", "", "", "", "", "", "", "step", "")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %-18s | %5d %8.3gs | %9.3gs %9.3gs %9.3gs | %9.2f %10.2g\n",
			p.From, p.To, p.FailedRank, p.FailClock,
			p.CollectSeconds, p.RestoreSeconds, p.StepSeconds, p.ReshardRatio, p.MaxLossDev)
	}
	b.WriteString("re-shard cost counts the replicated snapshot plus the broadcast re-distribution;\n")
	b.WriteString("max|Δloss| compares post-reshard steps against an uninterrupted run at the new layout.\n")
	return b.String()
}
