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

// Machine is the simulated hardware a cluster runs on: the α–β cost model
// and the node size that maps ranks to nodes for link pricing. Its zero
// value is the paper's testbed, Meluxina's four-A100 nodes.
type Machine struct {
	// Cost is the machine model; a zero field takes MeluxinaModel's value.
	Cost CostModel
	// GPUsPerNode is the node size: ranks r with equal r/GPUsPerNode share a
	// node (see Node). Zero means 4, as on Meluxina.
	GPUsPerNode int
}

// Check reports a machine no cluster can run on: a negative node size, or a
// negative, NaN or infinite cost field (zero is valid everywhere — it selects
// the Meluxina default). It is the one validity rule of the machine:
// WithDefaults and dist.New panic with its error, and callers that take a
// machine from configuration (the planner's Topology) return it instead.
func (m Machine) Check() error {
	if m.GPUsPerNode < 0 {
		return fmt.Errorf("dist: invalid machine: GPUsPerNode %d must not be negative (zero selects Meluxina's 4)", m.GPUsPerNode)
	}
	c := m.Cost
	for _, v := range [...]float64{c.FLOPS, c.Alpha, c.BetaIntra, c.BetaInter} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dist: invalid cost model %+v (fields must be finite and non-negative; zero selects the Meluxina default)", c)
		}
	}
	return nil
}

// WithDefaults validates the machine (panicking on a Check error) and
// substitutes the Meluxina preset per field: the normalisation dist.New
// applies to Config.Machine and the planner to its Topology. A zero field
// always means "use the preset" — a caller overriding only Alpha still gets
// a finite FLOPS rate, and a study that wants free links passes an epsilon.
func (m Machine) WithDefaults() Machine {
	if err := m.Check(); err != nil {
		panic(err.Error())
	}
	def := MeluxinaModel()
	if m.Cost.FLOPS == 0 {
		m.Cost.FLOPS = def.FLOPS
	}
	if m.Cost.Alpha == 0 {
		m.Cost.Alpha = def.Alpha
	}
	if m.Cost.BetaIntra == 0 {
		m.Cost.BetaIntra = def.BetaIntra
	}
	if m.Cost.BetaInter == 0 {
		m.Cost.BetaInter = def.BetaInter
	}
	if m.GPUsPerNode == 0 {
		m.GPUsPerNode = 4
	}
	return m
}

// Node returns the node a rank sits on, ranks placed GPUsPerNode at a time.
// The machine must be defaulted (WithDefaults).
func (m Machine) Node(rank int) int { return rank / m.GPUsPerNode }

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
