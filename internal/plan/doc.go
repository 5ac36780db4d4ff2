// Package plan is the auto-parallelism planner: given a Transformer
// workload, a rank budget and a per-rank memory budget, it enumerates every
// feasible processor layout — Megatron's and sequence parallelism's [p],
// Optimus' [q, q] and Tesseract's [q, q, d] — prices each candidate, and
// returns a ranked list of Plans. It closes the loop the paper leaves to the
// reader: the best point of the [p, q, d] space depends on model shape and
// cluster bandwidth, and the planner finds it instead of the user.
//
// # A price is a replay
//
// The planner holds no cost formulas. Price builds the candidate's family
// through the parallel registry, stacks the workload's phantom blocks and
// times one training step with parallel.Replay.Step — forward, then
// recompute + backward + gradient drain — the scaffold tables.RunRow
// measures a table row with. A family's schedule is stated once, in its
// layers, so a prediction is as right as the simulator after every schedule
// change; ComputeSeconds is the replay's representative rank's busy seconds
// and CommSeconds the rest of the step.
//
// The cluster the replay runs on keeps a search cheap. The layer schedules
// are SPMD, so when placement treats every rank alike one rank stands for
// all, and dist.NewSolo runs rank 0 alone — no goroutines, no rendezvous:
// tens of microseconds a candidate. That holds for every 1-D layout and for
// a mesh whose rows, columns and depth fibres each span one link class
// throughout (mesh.Shape.UniformLinks). A mesh placement treats unevenly —
// [3,3,d] on four-GPU nodes: the first row inside a node, the second not —
// is replayed on an ordinary full cluster. The choice is a pure function of
// the layout and Topology.GPUsPerNode; no caller makes it.
//
// Memory is the same replay's: a phantom checked out of the workspace counts
// the bytes its shape stands for, the replay has a trainer's step boundaries,
// and each rank records what it held — its parameter shards four times over
// (value, gradient, Adam's two moments), the input and output-gradient blocks
// and the workspace high-water. Breakdown.MemoryBytes is the largest over the
// ranks the replay ran, Topology.MemoryBudget is checked against it after
// pricing, and DistributedBudget states "the model must stay distributed" for
// the elastic replans. No family restates the paper's Eq. 7–10.
//
// # Families, searches, validation
//
// The planner knows nothing about any particular scheme. Each family
// package describes itself with an Algo: the name its constructor is
// registered under plus Grids (feasible layouts within a rank budget).
// megatron.PlanAlgo, seqpar.PlanAlgo, optimus.PlanAlgo and
// tesseract.PlanAlgo are the built-in descriptors, bundled as
// tables.DefaultAlgos. Search and SearchServing share one candidate walk
// (grids, the exact-rank filter, the memory filter on what the scorer's
// replay held, the no-feasible error, the tie-breaking sort) and differ in
// the scorer: a training step, or forward passes at the layout's minimum
// batch and at the full batch — a served layout is charged its weights once
// and no gradients.
//
// A Plan stays checkable: Plan.Validate replays it through a Measurer
// (tables.MeasurePlan: the full cluster, every rank), ValidateTop the
// leaders of a search. Both sides run the same scaffold, so what the error
// validates now is the symmetry argument above; it reads 0.0% unless that
// argument is wrong for a layout. cmd/tesseract-plan is the front end;
// tables.PlannerStudy regenerates the paper's best-layout rows from a search.
package plan
