// Package plan is the auto-parallelism planner: given a Transformer
// workload, a rank budget and a per-rank memory budget, it lists every
// feasible processor layout — Megatron's and sequence parallelism's [p] and
// Tesseract's [q, q, d], [q, q] at d = 1 — prices each candidate, and
// returns a ranked list of Plans. It closes the loop the paper leaves to the
// reader: the best point of the [p, q, d] space depends on model shape and
// cluster bandwidth, and the planner finds it instead of the user.
//
// # A price is a replay
//
// The planner holds no cost formulas. Price builds the candidate's family
// through the parallel registry, stacks the workload's phantom blocks and
// times one training step with parallel.Replay.Step — forward, then
// recompute + backward + gradient drain, the recompute forward charged by
// continuing the timed forward's clocks, which a re-run would repeat
// exactly; tables.RunRow prices a table row by calling Price. A family's
// schedule is stated once, in its layers, so a prediction is as right as
// the simulator after every schedule change; ComputeSeconds is the replay's
// representative rank's busy seconds and CommSeconds the rest of the step.
//
// The cluster the replay runs on keeps a search cheap. The layer schedules
// are SPMD, so when placement treats every rank alike one rank stands for
// all, and dist.NewSolo runs rank 0 alone — no goroutines, no rendezvous:
// tens of microseconds a candidate. That holds for every 1-D layout and for
// a mesh whose rows, columns and depth fibres each span one link class
// throughout (mesh.Shape.UniformLinks). A mesh placement treats unevenly —
// [3,3,d] on four-GPU nodes: the first row inside a node, the second not —
// is replayed on an ordinary full cluster. The choice is a pure function of
// the layout and the Topology's dist.Machine; no caller makes it.
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
// The planner knows nothing about any particular scheme, and it has no
// layout type of its own. A candidate is the runtime's parallel.Layout (Grid
// is its name here), and an Algo is the name a family registered its
// parallel.Spec under: the registry is the search space. parallel.Layouts
// lists the family's [p] or [q, q, d] layouts within the rank budget, and
// parallel.Fits — the rule parallel.CheckActivation refuses a replay by —
// keeps those that split the workload's activations, so a ranked Plan's Grid
// goes to parallel.New as it is. tables.DefaultAlgos names tesseract,
// megatron and seqpar: Optimus' [q, q] is Tesseract at d = 1, one schedule,
// priced once under Tesseract's name. Search and SearchServing share one
// candidate walk (layouts, the fit and exact-rank filters, the memory filter
// on what the scorer's replay held, the no-feasible error, the tie-breaking
// sort) and differ in the scorer: a training step, or forward passes at the
// layout's minimum batch and at the full batch — a served layout is charged
// its weights once and no gradients.
// Every candidate's replay builds a cluster of its own, so the walk scores
// them side by side (parallel.ReplayEach) and then filters and ranks in
// candidate order: the list and the error are what one score after another
// gives.
//
// A Plan stays checkable: Plan.Validate replays it through a Measurer,
// ValidateTop the leaders of a search. Measure is Price at the search's
// Topology, on the cluster Price picks, so the error reads 0.0% by
// construction and checks only that the candidate builds and replays. The symmetry argument above is
// checked by test: tables.TestEveryPredictionEqualsItsMeasurement replays
// every candidate on its full cluster, every rank, and holds the price to it
// bit for bit.
//
// A serving price is what serve.Server's batcher measures for a batch:
// parallel.Replay.Forward runs the forward, the step boundary and the
// clock-sync all-gather that ends every served batch (parallel.ClockSync,
// the barrier the server calls). serve.TestEveryServingPredictionEqualsItsMeasurement
// runs the real batcher, saturated, over every candidate of the Table 1
// serving search within 64 ranks, on four and on six GPUs per node, each on
// its full cluster, and holds every batch's service time to the price within
// 1e-12.
//
// cmd/tesseract-plan is the front end; tables.PlannerStudy regenerates the
// paper's best-layout rows from a search.
package plan
