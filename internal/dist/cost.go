package dist

import (
	"fmt"
	"math"
)

// CostModel is the α–β machine model the simulated clocks run on. All times
// are seconds, all sizes bytes.
type CostModel struct {
	// FLOPS is the per-GPU dense floating-point throughput (flop/s) that
	// Worker.Compute divides by.
	FLOPS float64
	// Alpha is the fixed per-message launch latency.
	Alpha float64
	// BetaIntra is the per-byte transfer cost between GPUs on one node
	// (NVLink-class links).
	BetaIntra float64
	// BetaInter is the per-byte transfer cost between GPUs on different
	// nodes (InfiniBand-class links, shared by the node's GPUs).
	BetaInter float64
}

// MeluxinaModel returns the preset for the paper's testbed: Meluxina
// (EuroHPC) nodes with four A100s each. FLOPS is the A100 tensor-core
// half-precision peak derated to a realistic GEMM efficiency; the intra
// rate is NVLink3, the inter rate is the node's HDR InfiniBand divided
// across its four GPUs.
func MeluxinaModel() CostModel {
	return CostModel{
		FLOPS:     312e12 * 0.8, // A100 fp16 peak × sustained efficiency
		Alpha:     2e-6,         // collective launch latency
		BetaIntra: 1.0 / 250e9,  // NVLink3 effective per direction
		BetaInter: 1.0 / 6.25e9, // 200 Gb/s HDR shared by 4 GPUs
	}
}

// Check reports a model no cluster can run on: a negative, NaN or infinite
// field (zero is valid everywhere — it selects the Meluxina default). It is
// the one validity rule of the cost model: WithDefaults and dist.New panic
// with its error, and callers that take a model from configuration (the
// planner's Topology, the tables harness) return it instead.
func (m CostModel) Check() error {
	for _, v := range [...]float64{m.FLOPS, m.Alpha, m.BetaIntra, m.BetaInter} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dist: invalid cost model %+v (fields must be finite and non-negative; zero selects the Meluxina default)", m)
		}
	}
	return nil
}

// WithDefaults validates the model and substitutes the Meluxina preset per
// field. It is the normalisation dist.New applies to Config.Cost — so
// dist.New(dist.Config{WorldSize: n}) charges sane times out of the box and
// a caller who overrides only some fields (say, Alpha for a latency study)
// still gets a finite FLOPS rate instead of Inf/NaN compute times — and the
// one out-of-cluster consumers (the auto-parallelism planner, analytic
// studies) use to price operations with exactly the model a cluster built
// from the same config would charge. A zero field always and uniformly
// means "use the preset" — a study that wants genuinely free links must
// pass an epsilon instead — and a model that fails Check panics.
func (m CostModel) WithDefaults() CostModel {
	if err := m.Check(); err != nil {
		panic(err.Error())
	}
	def := MeluxinaModel()
	if m.FLOPS == 0 {
		m.FLOPS = def.FLOPS
	}
	if m.Alpha == 0 {
		m.Alpha = def.Alpha
	}
	if m.BetaIntra == 0 {
		m.BetaIntra = def.BetaIntra
	}
	if m.BetaInter == 0 {
		m.BetaInter = def.BetaInter
	}
	return m
}

// treeSteps is ⌈log₂ n⌉, the depth of a binomial tree over n ranks.
func treeSteps(n int) float64 {
	steps := 0
	for span := 1; span < n; span <<= 1 {
		steps++
	}
	return float64(steps)
}

// broadcastTime prices a binomial-tree broadcast (or reduce) of b bytes.
func (m CostModel) broadcastTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	return treeSteps(n) * (m.Alpha + float64(b)*beta)
}

// allReduceTime prices a bandwidth-optimal ring all-reduce of b bytes:
// 2(n−1) steps each moving B/n bytes (reduce-scatter + all-gather).
func (m CostModel) allReduceTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	nf := float64(n)
	return 2 * (nf - 1) * (m.Alpha + float64(b)/nf*beta)
}

// allGatherTime prices a ring all-gather where every member contributes b
// bytes: n−1 steps each forwarding one member block.
func (m CostModel) allGatherTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	return (float64(n) - 1) * (m.Alpha + float64(b)*beta)
}

// reduceScatterTime prices a ring reduce-scatter of b payload bytes: n−1
// steps each moving b/n bytes — half of allReduceTime's ring.
func (m CostModel) reduceScatterTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	nf := float64(n)
	return (nf - 1) * (m.Alpha + float64(b)/nf*beta)
}

// barrierTime prices a tree barrier (latency only).
func (m CostModel) barrierTime(n int) float64 {
	if n <= 1 {
		return 0
	}
	return treeSteps(n) * m.Alpha
}

// maxClock returns the largest clock in a contribution slice.
func maxClock(clocks []float64) float64 {
	out := math.Inf(-1)
	for _, c := range clocks {
		if c > out {
			out = c
		}
	}
	return out
}
