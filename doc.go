// Package repro is a from-scratch Go reproduction of "Tesseract:
// Parallelize the Tensor Parallelism Efficiently" (Wang, Xu, Bian, You —
// ICPP 2022): 2.5-D tensor parallelism for Transformer models on a
// [q, q, d] processor mesh, together with every substrate the paper's
// evaluation depends on.
//
// The implementation lives under internal/:
//
//   - internal/tensor     — dense float64 linear algebra, phantom mode, Workspace pool
//   - internal/dist       — simulated multi-GPU cluster with an α–β cost model
//   - internal/compute    — tensor ops that also charge the worker's simulated clock
//   - internal/mesh       — [q, q, d] grid and communicator bookkeeping
//   - internal/summa      — 2-D SUMMA kernels (AB, ABᵀ, AᵀB) shared by all schemes
//   - internal/cannon     — Cannon's algorithm (baseline, §2.1)
//   - internal/solomonik  — 2.5-D matrix multiplication (baseline, §2.3)
//   - internal/parallel   — family-agnostic model layer: the Family/Layer contracts,
//     the shared block composition and the one per-head attention core
//   - internal/tesseract  — the paper's contribution: Tesseract matmul + layers
//   - internal/megatron   — the one 1-D implementation: Megatron-LM (§2.5) and
//     sequence parallelism are its replicated and row-sharded activation brackets
//   - internal/seqpar     — the sequence-parallel family adapter over those layers
//   - internal/optimus    — 2-D Optimus baseline (§2.2): the depth-1 Tesseract family
//     and planner descriptor under their own name
//   - internal/plan       — auto-parallelism planner over the [p, q, d] space
//   - internal/nn         — serial reference layers, losses, optimisers
//   - internal/vit        — the Figure 7 Vision Transformer experiment; its Session
//     (one layout, model and optimiser on one cluster) is what every
//     distributed trainer, the step bencher and internal/serve drive
//   - internal/claims     — the paper's closed-form formulas (Eqs. 1-10, §3.1)
//   - internal/tables     — harness regenerating Tables 1-2 and the studies
//
// Everything runs on the simulated cluster: one goroutine per rank, one
// destination-passing form of each collective that the last rank to arrive
// completes in shared memory, simulated clocks priced by the α–β model, and
// shape-only (phantom) matrices that let a 64-GPU table row execute its
// full communication schedule in milliseconds of wall time. Nonblocking
// collectives overlap communication with compute (clock = max, not sum),
// every buffer is pooled through per-worker workspaces, and the SUMMA
// kernels run as double-buffered pipelines — all held bit-identical to
// their blocking and serial reference forms by property tests. The
// auto-parallelism planner (internal/plan) searches layouts and algorithm
// families by replaying each candidate's phantom layers on one
// representative rank of that cluster.
//
// The benchmarks in bench_test.go regenerate every table and figure; the
// binaries under cmd/ print them (tesseract-bench for the paper's tables,
// tesseract-plan for the planner); the programs under examples/ show the
// API. For the long-form subsystem walkthrough — the rendezvous-round
// collective engine, the workspace ownership rules, the pipelined SUMMA
// schedules, and a worked [2,2,2] step — see docs/architecture.md; for the
// package map, quickstart and benchmark trajectory, see README.md.
package repro
