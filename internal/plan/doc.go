// Package plan is the auto-parallelism planner: given a Transformer
// workload, a rank budget and a per-rank memory budget, it enumerates every
// feasible processor layout — Megatron's [p], Optimus' [q, q] and
// Tesseract's [q, q, d] — scores each candidate analytically against the
// dist.CostModel (compute plus the communication a double-buffered schedule
// cannot hide, plus a per-rank memory estimate), and returns a ranked list
// of Plans. It closes the loop the paper leaves to the reader: the best
// point of the [p, q, d] space depends on model shape and cluster
// bandwidth, and the planner finds it instead of the user.
//
// The planner knows nothing about any particular scheme. Each baseline
// package describes itself with an Algo — a family name plus three
// closures: Grids (feasible layouts within a rank budget), Cost (analytic
// forward/backward seconds for a workload on a grid, mirroring the exact
// schedule the implementation executes on the simulated cluster) and Memory
// (bytes a rank must hold). A Cost closure is a family's own list of terms
// added to two Costers — one layer's forward pass and its backward pass,
// compute and non-hidden comm apart — and Assemble is the one place those
// become a Breakdown (Layers passes, the recompute forward, comm as the
// remainder). megatron.PlanAlgo, optimus.PlanAlgo and
// tesseract.PlanAlgo are the built-in descriptors; internal/tables bundles
// them as tables.DefaultAlgos, and a later scheme joins the search by
// exporting one more Algo.
//
// Because every candidate can also be executed for real on the simulated
// cluster, a Plan is checkable: Plan.Validate replays it (via a Measurer
// such as tables.MeasurePlan) and reports the predicted-vs-measured step
// time error, and ValidateTop does so for the leading candidates of a
// search. cmd/tesseract-plan is the command-line front end; the
// tables.PlannerStudy regenerates the paper's best-layout rows from the
// planner instead of hard-coded grids.
package plan
