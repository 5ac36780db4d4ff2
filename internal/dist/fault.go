package dist

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// FaultPlan is a deterministic, step-indexed perturbation schedule for a
// simulated cluster: gray failures as data. Unlike the fail-stop Failure
// path (a rank dies, the cluster aborts), a fault plan degrades — ranks
// compute slower, links carry fewer bytes per second, collectives stall
// through bounded retry/backoff — and every perturbation is charged to the
// simulated clock, never to the arithmetic. Losses, gradients and traffic
// statistics are bit-identical to an unperturbed run; only time moves.
//
// Entries are active while From ≤ step ≤ To, where the step index is
// whatever the driving loop last passed to Worker.BeginStep (0 for code
// that never calls it). An empty plan — or one whose windows never overlap
// the steps actually run — is bitwise identical to no plan at all: clocks,
// losses and statistics match a bare cluster to the last bit, which is the
// invariant the zero-perturbation identity tests pin.
//
// Plans are immutable once installed (dist.Config.Faults); all activation
// lookups are pure functions of (plan, step, rank), so runs are
// reproducible regardless of goroutine scheduling.
type FaultPlan struct {
	// Seed records the chaos seed the plan was generated from (zero for
	// hand-written plans). It is provenance, not behaviour: the schedule
	// below is the behaviour.
	Seed uint64
	// Ranks are per-rank compute slowdowns.
	Ranks []RankFault
	// Links are per-rank link degradations.
	Links []LinkFault
	// Collectives are transient collective stalls with retry/backoff.
	Collectives []CollectiveFault
}

// RankFault slows one rank's compute: every Worker.Compute second costs
// Factor seconds while the window is active. Factor < 1 is rejected by
// Check — a gray failure never speeds a node up.
type RankFault struct {
	Rank     int
	From, To int
	// Factor multiplies the rank's compute time (2 = half speed). Multiple
	// active windows on one rank compound multiplicatively.
	Factor float64
}

// LinkFault degrades every link touching one rank: collectives over groups
// containing the rank run their wire time scaled by BetaFactor with
// ExtraAlpha added once per operation.
// The worst active fault among an operation's member ranks governs (one
// throttled NIC paces the whole communicator).
type LinkFault struct {
	Rank     int
	From, To int
	// BetaFactor scales the operation's transfer time (≥ 1).
	BetaFactor float64
	// ExtraAlpha is added once per operation, in seconds — degraded-link
	// latency (retransmits, congestion queues) independent of payload.
	ExtraAlpha float64
}

// CollectiveFault models transient collective failures on one rank:
// every collective the rank participates in during the window needs
// Retries failed attempts before succeeding, each backed off exponentially
// from Backoff seconds — a total stall of Backoff·(2^Retries − 1) charged
// to the operation's completion time. The retry budget is bounded by
// construction: the operation always completes, it just completes late.
type CollectiveFault struct {
	Rank     int
	From, To int
	Retries  int
	Backoff  float64
}

// Forever is an open-ended window end for fault entries.
const Forever = math.MaxInt32

// active reports whether a [from, to] window covers step.
func active(from, to, step int) bool { return from <= step && step <= to }

// Empty reports whether the plan perturbs nothing. dist.New treats an
// empty plan exactly like a nil one, so the perturbation code paths are
// not even entered.
func (p *FaultPlan) Empty() bool {
	return p == nil || (len(p.Ranks) == 0 && len(p.Links) == 0 && len(p.Collectives) == 0)
}

// Check validates the plan against a world size: ranks in range, factors
// ≥ 1, retries and backoffs non-negative, windows well-formed.
func (p *FaultPlan) Check(world int) error {
	if p == nil {
		return nil
	}
	rank := func(kind string, r, from, to int) error {
		if r < 0 || r >= world {
			return fmt.Errorf("dist: %s fault rank %d outside world of %d", kind, r, world)
		}
		if to < from {
			return fmt.Errorf("dist: %s fault window [%d, %d] ends before it starts", kind, from, to)
		}
		return nil
	}
	for _, f := range p.Ranks {
		if err := rank("compute", f.Rank, f.From, f.To); err != nil {
			return err
		}
		if f.Factor < 1 || math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) {
			return fmt.Errorf("dist: compute fault factor %g on rank %d (must be ≥ 1 and finite)", f.Factor, f.Rank)
		}
	}
	for _, f := range p.Links {
		if err := rank("link", f.Rank, f.From, f.To); err != nil {
			return err
		}
		if f.BetaFactor < 1 || f.ExtraAlpha < 0 {
			return fmt.Errorf("dist: link fault on rank %d needs BetaFactor ≥ 1 and ExtraAlpha ≥ 0, got %g/%g",
				f.Rank, f.BetaFactor, f.ExtraAlpha)
		}
	}
	for _, f := range p.Collectives {
		if err := rank("collective", f.Rank, f.From, f.To); err != nil {
			return err
		}
		if f.Retries < 0 || f.Backoff < 0 {
			return fmt.Errorf("dist: collective fault on rank %d needs Retries ≥ 0 and Backoff ≥ 0, got %d/%g",
				f.Rank, f.Retries, f.Backoff)
		}
	}
	return nil
}

// computeFactor returns the compute-time multiplier for a rank at a step:
// the product of every active window's factor, 1 when none apply.
func (p *FaultPlan) computeFactor(rank, step int) float64 {
	out := 1.0
	for _, f := range p.Ranks {
		if f.Rank == rank && active(f.From, f.To, step) {
			out *= f.Factor
		}
	}
	return out
}

// linkPerturb returns the wire-time multiplier and extra latency for a
// collective over the given member ranks at a step: the worst active link
// fault among the members governs the whole operation, exactly as one
// throttled NIC paces a real ring or tree.
func (p *FaultPlan) linkPerturb(ranks []int, step int) (betaFactor, extraAlpha float64) {
	betaFactor = 1
	for _, f := range p.Links {
		if !active(f.From, f.To, step) {
			continue
		}
		for _, r := range ranks {
			if f.Rank == r {
				if f.BetaFactor > betaFactor {
					betaFactor = f.BetaFactor
				}
				if f.ExtraAlpha > extraAlpha {
					extraAlpha = f.ExtraAlpha
				}
				break
			}
		}
	}
	return betaFactor, extraAlpha
}

// collectiveDelay returns the retry/backoff stall for a collective over the
// given member ranks at a step: the largest active stall among the members
// (retries on different ranks overlap; the slowest retrier gates the
// round). A fault with Retries attempts at base Backoff stalls
// Backoff·(2^Retries − 1) seconds — the sum of the exponential backoff
// series, bounded because Retries is a constant of the plan.
func (p *FaultPlan) collectiveDelay(ranks []int, step int) float64 {
	var out float64
	for _, f := range p.Collectives {
		if !active(f.From, f.To, step) || f.Retries == 0 {
			continue
		}
		for _, r := range ranks {
			if f.Rank == r {
				d := f.Backoff * (math.Exp2(float64(f.Retries)) - 1)
				if d > out {
					out = d
				}
				break
			}
		}
	}
	return out
}

// Remap rebuilds the plan for a shrunken cluster: survivors lists the old
// ranks that live on, in the order they become the new ranks 0..n−1.
// Entries targeting excluded ranks are dropped; the rest follow their rank
// to its new id. The elastic re-layout path uses this to keep a chaos
// schedule coherent across a proactive re-shard that demoted the straggler.
func (p *FaultPlan) Remap(survivors []int) *FaultPlan {
	if p == nil {
		return nil
	}
	newRank := make(map[int]int, len(survivors))
	for i, r := range survivors {
		newRank[r] = i
	}
	out := &FaultPlan{Seed: p.Seed}
	for _, f := range p.Ranks {
		if nr, ok := newRank[f.Rank]; ok {
			f.Rank = nr
			out.Ranks = append(out.Ranks, f)
		}
	}
	for _, f := range p.Links {
		if nr, ok := newRank[f.Rank]; ok {
			f.Rank = nr
			out.Links = append(out.Links, f)
		}
	}
	for _, f := range p.Collectives {
		if nr, ok := newRank[f.Rank]; ok {
			f.Rank = nr
			out.Collectives = append(out.Collectives, f)
		}
	}
	return out
}

// NewChaosPlan synthesises a seeded random fault plan for a world of the
// given size over a run of totalSteps: one compute straggler (factor 2, 4
// or 8) striking after a clean lead-in, plus — with probability ½ each — a
// degraded link and a transient collective stall on independently chosen
// ranks. The same (seed, world, totalSteps) triple always yields the same
// plan; different seeds explore different schedules. This is the generator
// behind `vit-train -chaos -chaos-seed N`.
func NewChaosPlan(seed uint64, world, totalSteps int) *FaultPlan {
	if world < 1 || totalSteps < 1 {
		panic(fmt.Sprintf("dist: chaos plan needs a positive world (%d) and steps (%d)", world, totalSteps))
	}
	// SplitMix64 is stable across platforms, so a chaos seed names one
	// exact fault schedule forever.
	rng := tensor.NewRNG(seed)
	p := &FaultPlan{Seed: seed}
	factors := [...]float64{2, 4, 8}
	// The straggler arrives after at least a quarter of the run (the
	// detector needs a healthy baseline window) and stays until the end —
	// gray failures rarely fix themselves.
	from := totalSteps/4 + rng.Intn(totalSteps/4+1)
	p.Ranks = append(p.Ranks, RankFault{
		Rank:   rng.Intn(world),
		From:   from,
		To:     Forever,
		Factor: factors[rng.Intn(len(factors))],
	})
	if rng.Uint64()%2 == 0 {
		p.Links = append(p.Links, LinkFault{
			Rank:       rng.Intn(world),
			From:       from + rng.Intn(totalSteps/4+1),
			To:         Forever,
			BetaFactor: 2 + float64(rng.Intn(3)),
			ExtraAlpha: 1e-6 * float64(1+rng.Intn(4)),
		})
	}
	if rng.Uint64()%2 == 0 {
		stall := from + rng.Intn(totalSteps/2+1)
		p.Collectives = append(p.Collectives, CollectiveFault{
			Rank:    rng.Intn(world),
			From:    stall,
			To:      stall + rng.Intn(4),
			Retries: 1 + rng.Intn(3),
			Backoff: 1e-5,
		})
	}
	return p
}
