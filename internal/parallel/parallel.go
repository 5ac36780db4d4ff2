// Package parallel defines the family-agnostic model layer: one Family
// interface that every tensor-parallel scheme in this repository —
// Tesseract [q, q, d], Optimus [q, q], Megatron-LM [p] and sequence
// parallelism [p] — implements, so models, trainers, the experiment harness
// and the auto-parallelism planner are written once against the interface
// instead of once per scheme.
//
// The paper's point is that the schemes are interchangeable layouts of the
// same Transformer math; this package is that point as an API, and as code:
// the Transformer block, its attention, its MLP and its layer norm exist
// once, here (Block, Attention, MLP, LayerNorm), composed from the linears
// and the buffer lifetimes a family contributes (Linears). So do the
// activation layout (Distribute, Collect, Slice, GatherPooled), the block
// constructors (NewBlock, NewLayerNorm, NewHead) and the step boundary
// (DrainGradients, EndStep): View implements them for every family from the
// two groups its activations split over and the family's Linears, with one
// place every partial gradient lands (Grads.Land). A family builds only its
// linears (NewLinear, and the pairs a block shards; the classifier head is
// the same whole-weight Dense for every family, and Dense is also the local
// GEMM under the 1-D families' linears). The network is one Model: the
// trainer's, the server's and every replay's, which without an embedding and
// a head is the paper's block stack (Stack). Everything above — vit.Session
// and the trainers, serving and tables runners that drive it — only ever
// sees these contracts.
//
// # One description per family
//
// A family package registers one Spec from init: its name, constructor and
// arrangement, which Validate, Layouts and Layout.RowShards read. The
// layout type is one too: the planner's candidates are Layouts, so a ranked
// plan goes to New as it is.
//
// # Layer contract
//
// A Layer's Forward may retain its input and its output for the backward
// pass (saved activations); callers must not mutate or recycle a matrix
// that crossed a Forward API before the step boundary. Backward never
// retains its input: the caller may recycle dy as soon as Backward
// returns. A Layer whose Backward draws its result from the worker's
// workspace (every Block composed by this package does) hands ownership of
// that buffer to the caller.
//
// # Grad-sync ordering
//
// A backward pass computes each rank's partial parameter gradient straight
// into the parameter's Grad and finishes it through one call, Grads.Land,
// naming only the group the partial sums over: the group that replicates
// the weight (Tesseract's depth fibre, §3.1; the row group of a replicated
// weight on row-split input), or nil when the partial is the gradient. A sum
// starts at once, in place, and flies behind the remaining backward work.
// Gradients are only final after Family.DrainGradients returns; trainers
// must drain after the full backward pass and before the optimiser reads any
// gradient. Drain is idempotent and free when nothing was summed.
//
// # EndStep
//
// EndStep marks a training-step boundary: after the optimiser update (or
// after an evaluation forward whose outputs were consumed), every rank
// calls EndStep to recycle its workspace. It needs no barrier: every
// cross-worker read completes inside a collective, and what a lending
// broadcast hands out must not be written before the Run ends anyway (see
// dist's lending contract).
package parallel

import (
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Layer is one distributed module bound to its processor view: the
// forward/backward contract every composition in this repository uses.
type Layer interface {
	// Forward maps the family-distributed input to the family-distributed
	// output, retaining whatever the backward pass needs.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward accumulates parameter gradients and returns the input
	// gradient. It never retains dy.
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// Params returns the parameter shards this rank owns, in a
	// deterministic order identical on every rank.
	Params() []*nn.Param
	// State enumerates the layer's canonical checkpoint slots — every rank
	// returns the same ordered list of global shapes; each entry maps the
	// rank's local shard (if any) into the canonical serial tensor. See
	// Stater. Parameter-free layers return nil.
	State() []State
}

// Slice is one rank's share of a replicated [Rows·shards, Cols·shards]
// matrix: the submatrix starting at (Row0, Col0). Families that replicate
// activations return the whole matrix (Row0 = Col0 = 0).
type Slice struct {
	Row0, Col0 int
	Rows, Cols int
}

// Family is one tensor-parallel scheme's model layer: layout, layers and
// step hooks. Implementations register a Spec so layouts (planner
// candidates included) can be turned into families by name.
type Family interface {
	// Layout returns the normalized layout the family was built from; its
	// Family field is the registered name.
	Layout() Layout
	// Worker returns the calling rank's view of the simulated cluster.
	Worker() *dist.Worker
	// RowShards returns how many ways activation rows are partitioned:
	// d·q for Tesseract, q for Optimus, 1 for Megatron's replicated
	// activations, p for sequence parallelism. Batches must contain a
	// multiple of RowShards sequences.
	RowShards() int

	// NewLinear builds the family's fully connected layer (the ViT patch
	// embedding); input and output are family-distributed activations.
	// The full weight is drawn from rng in the serial order, so families
	// shard the identical serial parameters; a nil rng builds the
	// shape-only layer, on every family.
	NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) Layer
	// NewBlock builds one Transformer block (attention, MLP, residuals,
	// layer norms), drawing parameters from rng in the serial order; a nil
	// rng builds the shape-only block of a paper-scale timing run.
	NewBlock(h, heads, seqLen int, rng *tensor.RNG) Layer
	// NewBlockPhantom is NewBlock with a nil rng.
	NewBlockPhantom(h, heads, seqLen int) Layer
	// NewLayerNorm builds the layer normalisation over hidden width h.
	NewLayerNorm(h int) Layer
	// NewHead builds the classifier head: a Dense over the whole weight,
	// whose input features are replicated, drawn from rng in the serial
	// order.
	NewHead(in, out int, rng *tensor.RNG) *Dense

	// Distribute slices a replicated global activation into this rank's
	// block (the identity for families that replicate activations).
	Distribute(global *tensor.Matrix) *tensor.Matrix
	// Collect reassembles a family-distributed activation on every rank.
	Collect(local *tensor.Matrix) *tensor.Matrix
	// Slice reports which part of a replicated [rows, cols] activation
	// this rank holds, for slicing replicated per-row data (positional
	// encodings, pooled-feature gradients) down to the local block.
	Slice(rows, cols int) Slice
	// GatherPooled all-gathers a row-pooled local block into the full
	// replicated matrix on every rank. Ownership of local (a workspace
	// buffer) transfers to the family; the returned matrix is
	// caller-owned until the step boundary. Families whose activations
	// are already replicated return local unchanged.
	GatherPooled(local *tensor.Matrix) *tensor.Matrix

	// DrainGradients completes every deferred parameter-gradient
	// synchronisation; afterwards gradients are final and the optimiser
	// may step.
	DrainGradients()
	// GatherBands all-gathers every weight band (Grads.Band) an optimiser
	// stepped or a restore installed since the last gather, so that every
	// replica's Value is whole again.
	GatherBands()
	// EndStep is the training-step boundary: it gathers the bands and
	// recycles this rank's workspace.
	EndStep()
}
