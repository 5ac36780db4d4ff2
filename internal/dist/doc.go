// Package dist is the simulated multi-GPU cluster every algorithm in this
// repository runs on: a goroutine-per-rank runtime, MPI-style communicator
// groups with the collectives the paper's schedules need, and an analytic
// α–β cost model that turns each operation into simulated seconds — so a
// 64-GPU Table 1 row executes in milliseconds of wall time while reporting
// the communication cost of the real schedule. The full design discussion
// lives in docs/architecture.md; this comment is the contract summary.
//
// # Runtime
//
// dist.New(dist.Config{WorldSize: n}) builds a Cluster of n Workers; Run
// executes one function per rank, each on its own goroutine. A worker that
// errors or panics aborts the whole cluster (peers unwind, Run names the
// rank; a fresh cluster is the recovery). A cluster runs one Run at a time:
// a nested or concurrent Run on the same cluster returns ErrRunActive.
// Clocks and traffic statistics persist across Runs; ResetClocks opens a
// new timing window.
//
// # Solo clusters
//
// dist.NewSolo builds the same world but runs rank 0 alone, on the caller's
// goroutine: groups keep their full size and the links their rank lists
// span, every collective completes on rank 0's arrival, is priced by the one
// α–β switch in Group.finish from the byte count rank 0's own arguments
// state, and moves nothing. It exists to price SPMD schedules — the
// planner's replay — and is exact for rank 0's clock, busy seconds and
// overlap account exactly when all ranks of the full run would agree on
// them: same operations, same shapes, same compute everywhere, and sibling
// groups on the same link class. The caller owns that argument; what dist
// can see it refuses loudly instead of pricing wrong — a real (non-phantom)
// payload fails the Run naming the operation, a fault plan panics in
// NewSolo, AttachMonitor, Send and Recv panic.
//
// # Groups and collectives
//
// Workers build communicators with w.Cluster().Group(ranks...); the rank
// list is the group's canonical order, and groups are cached per list.
// There is one form of each collective — BroadcastInto, ReduceInto,
// AllReduceInto, AllGatherInto, ReduceScatterInto, Barrier — and it is
// destination-passing: the caller supplies the buffer the result lands in
// (which may alias the payload: the in-place form), so a receiver states the
// shape it expects and every rank knows an operation's byte count from its
// own arguments. Every operation is a rendezvous round: members file
// arrivals without blocking and the last arriver computes the whole outcome
// once — copies into every destination, sums in the fixed association of a
// binomial tree over the group's virtual positions, so results are
// deterministic and replicas stay bit-identical — then wakes exactly the
// members that registered to block, each on its own parking slot. Every
// cross-member read completes before any member returns, so a member's
// buffers are exclusively its own again the moment its call does — which is
// what lets SUMMA reuse its panels (see tensor.Workspace for ownership
// rules) — and dist never allocates a result: steady-state collectives
// allocate nothing.
//
// IBroadcastLend is the one exception to destination-passing, and to "a
// member's buffers are exclusively its own again": its receivers pass no
// destination and after Wait hold the root's payload itself (Handle.Lent),
// which saves the copy when the payload is something nobody is going to
// write — a served model's weight block. The contract is the caller's to
// keep: a lent matrix is read-only for every member, the root included, and
// valid until the enclosing Run ends — Run returns only after every rank has,
// so the first write after it is ordered behind the last read. Nothing in
// dist checks that (the race detector does, in the tests). The round itself
// is an ordinary broadcast: it pairs with IBroadcastInto arrivals, and it is
// priced, counted and fault-perturbed from the root's payload exactly as the
// copying form. A solo cluster refuses a borrower, whose arguments state no
// shape to price.
//
// # Nonblocking collectives
//
// IBroadcastInto, IReduceInto, IAllReduceInto and IReduceScatterInto issue
// without blocking and return a Handle: issue, compute, Wait (exactly once). Operations on
// one group pair up in per-worker issue order (mismatches panic), buffers
// lent to an in-flight operation are borrowed until Wait (the workspace
// panics on Put or ReleaseAll while a borrow is outstanding), and results
// are bit-identical to the blocking forms. Simulated time models the
// overlap: Wait advances the clock to max(compute, comm) instead of their
// sum, with each group serialising its own operations like one pipeline
// channel. Cluster.Overlap reports the comm time hidden behind compute;
// HiddenFraction is the analytic counterpart for one pipelined stage.
//
// # Cost model and phantom mode
//
// CostModel is an α–β machine model (FLOPS, per-message Alpha, separate
// per-byte Betas for intra- and inter-node links); a group is priced by
// the slowest link it spans, with Config.GPUsPerNode mapping ranks to
// nodes. MeluxinaModel is the paper's testbed preset. The per-op charges
// (binomial-tree broadcast/reduce, ring all-reduce/all-gather) are tabled
// in docs/architecture.md. Costs depend only on shapes and topology — never
// on data or scheduling — so phantom (shape-only) runs advance exactly the
// clocks of the real execution, which is what the auto-parallelism planner
// (internal/plan) prices a layout by: it runs the layers.
package dist
