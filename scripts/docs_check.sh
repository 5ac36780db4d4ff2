#!/usr/bin/env sh
# Documentation gate: formatting, vet, and link integrity for the Markdown
# docs. Every relative link target referenced from README.md and docs/*.md
# must exist in the repository, so the package map and the architecture
# notes cannot silently rot as files move. It also holds the GEMM kernel to
# what the docs promise of it: no fused multiply-add (docs/architecture.md
# §3); the host to one level of parallelism: no goroutine outside dist's rank
# loop and parallel.ReplayEach; and the tree to what the package map promises: no internal package that
# nothing shipped imports, and no family package restating its schedule as
# cost-model arithmetic, its footprint as a memory formula, or the shared
# attention and MLP modules as types of its own; dist to one way of moving
# bytes: collectives, no point-to-point Send/Recv; each family to one
# description: a parallel.Spec — a name, a constructor and an arrangement —
# which is also the planner's search space; each buffer to one lifetime: dead
# at its last reader, no family's regime; and
# a family package to its linears: the activation layout, the layer norm,
# the block constructors, the step boundary and the deferred-gradient queue
# live once, in parallel.View, every partial gradient lands through
# parallel.Grads.Land, and a family that runs another family's
# layers (optimus, seqpar) has no layer code; the local linear to one core,
# parallel.Dense; a rank's weights to its own rectangles, drawn alone; the
# simulated clock to internal/compute: no GEMM charged or multiplied beside
# it, and the attention core charged there alone, one closed form on real
# and phantom operands; the §1/§3.1 transmission claim to its measurement:
# no closed-form side channel; a serving price to what the server's batcher
# measures: no measured serving twin beside it; and the machine to one value: no
# GPUsPerNode or CostModel field outside dist.Machine and plan.Topology, no
# literal element width.
#
# Usage: scripts/docs_check.sh
set -eu

fail=0

unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "docs_check: gofmt -l reports unformatted files:" >&2
    echo "$unformatted" >&2
    fail=1
fi

go vet ./... || fail=1

# A fused multiply-add rounds once where the naive kernels round twice, so one
# such instruction in the micro-kernel would break bitwise equality with them.
if grep -nE 'VFN?M(ADD|SUB)' internal/tensor/gemm_amd64.s >&2; then
    echo "docs_check: internal/tensor/gemm_amd64.s uses a fused multiply-add" >&2
    fail=1
fi

# One level of host parallelism (docs/architecture.md §3, §11): the simulated
# cluster's rank goroutines (dist's rankLoop) and the runner of independent
# replays (parallel.ReplayEach) are the only places that start a goroutine. A
# go statement anywhere else in non-test Go under internal/, cmd/ or
# examples/ — a kernel's row-band pool, a study's own fan-out — is a second
# level growing back. The awk tracks the enclosing top-level func.
if ! find internal cmd examples -name '*.go' ! -name '*_test.go' | sort | xargs awk '
    FNR == 1 { fn = "" }
    /^func / { fn = $0 }
    /^[[:space:]]+go [A-Za-z_(]/ {
        if (FILENAME == "internal/dist/dist.go" && $0 ~ /^[[:space:]]+go rankLoop\(/) next
        if (FILENAME == "internal/parallel/replay.go" && fn ~ /^func ReplayEach\[/) next
        printf "%s:%d: %s\n", FILENAME, FNR, $0 > "/dev/stderr"
        bad = 1
    }
    END { exit bad }'; then
    echo "docs_check: a goroutine is started outside dist's rank loop and parallel.ReplayEach" >&2
    fail=1
fi

# The planner prices a layout by replaying the family's layers
# (docs/architecture.md §11). A family package that calls a dist.CostModel
# pricing method, or brings back plan's term accumulators, is growing a second
# copy of its schedule that nothing holds equal to the first.
if grep -rnE 'Seconds\(|plan\.Coster|plan\.Assemble' --include='*.go' \
    internal/tesseract internal/megatron internal/seqpar internal/optimus >&2; then
    echo "docs_check: a family package prices with the cost model instead of being replayed" >&2
    fail=1
fi

# Nor does it read a layout's memory from a formula: what a rank holds is what
# the same replay's workspace held. A family package that mentions an element
# size or hands the planner a Memory closure is growing the Eq. 7-10 mirror
# back.
if grep -rnE 'BytesPerElem|Memory:' --include='*.go' \
    internal/tesseract internal/megatron internal/seqpar internal/optimus >&2; then
    echo "docs_check: a family package estimates its memory instead of being replayed" >&2
    fail=1
fi

# Nor does it carry a Transformer sub-module of its own: attention, the MLP
# and the fused-QKV checkpoint slot exist once, in internal/parallel, over the
# family's linears (docs/architecture.md §6), and a phantom layer is a nil rng,
# not a second constructor. A family package that declares an Attention or MLP
# type, an adapter that re-attaches its Proc, or a New...Phantom constructor is
# growing the second copy back. (The NewBlockPhantom method stays: it is
# NewBlock with a nil rng, on the interface for the benchmark's sake.)
if grep -rnE '^type (Attention|MLP|bound|procModule) |^func New[A-Za-z]*Phantom\(' --include='*.go' \
    internal/tesseract internal/megatron internal/seqpar internal/optimus >&2; then
    echo "docs_check: a family package declares a Transformer sub-module, a Proc adapter or a phantom constructor of its own" >&2
    fail=1
fi

# A buffer is dead at its last reader, on every family (docs/architecture.md
# §6): the shared attention and MLP return each intermediate where it is last
# read, and a family hands them linears, not a policy. A Lifetime type or
# method, or a KeepAll, RecycleGrads or Transient constant, in non-test Go is
# the per-family buffer-lifetime regime growing back.
if grep -rnE '^type Lifetime\b|^func \([a-z]+ \*?[A-Za-z]+\) Lifetime\(|\b(KeepAll|RecycleGrads|Transient)\b' \
    --include='*.go' --exclude='*_test.go' internal cmd examples >&2; then
    echo "docs_check: a family chooses a buffer lifetime for the shared modules again" >&2
    fail=1
fi

# Collectives are the only way bytes move (docs/architecture.md §1): every
# byte and simulated second is booked where a round finishes. A Send or Recv
# method or a mailbox type in internal/dist, or a .Send(/.Recv( call anywhere
# (a transfer between two ranks is a two-member broadcast), is a second
# communication path growing back.
if grep -rnE '^func \([a-z]+ \*?[A-Za-z]+\) (Send|Recv)\(|^type [A-Za-z]*[mM]ailbox' --include='*.go' internal/dist >&2 ||
    grep -rnE '\.(Send|Recv)\(' --include='*.go' internal cmd examples >&2; then
    echo "docs_check: a point-to-point Send/Recv path is back beside the collectives" >&2
    fail=1
fi

# A family is described once (docs/architecture.md §6, §11): one
# parallel.Spec registration, whose Arrangement is all the planner needs —
# parallel.Layouts lists the family's layouts and parallel.Fits keeps the ones
# a workload splits. A registration map beside the Spec, a planner-side layout
# struct, a plan-to-family converter or a descriptor wrapper is a second
# description growing back; so is an analytic overlap price beside the
# measured one (tables.OverlapStudy). A family package that imports the
# planner or declares its own grid enumerator (func Grids) is restating the
# search space and the fit rule beside the registry.
if grep -rnE 'RegisterCheck|RegisterRowShards|PlanAlgo|type Grid struct|Instantiate\(|HiddenFraction|BroadcastSeconds|GEMMSeconds' \
    --include='*.go' internal cmd examples >&2; then
    echo "docs_check: a family or a price is described twice again" >&2
    fail=1
fi
# The same holds inside the Spec: it is a name, a constructor and an
# Arrangement (Flat, Rows, Grid, Mesh), from which Validate, Layouts and
# Layout.RowShards derive the refusals, the candidates and the row split. A
# Check: or RowShards: field in a Spec literal is a per-family hook growing
# back beside the arrangement. The awk tracks a Spec{ literal by brace depth.
if ! find internal cmd examples -name '*.go' | sort | xargs awk '
    FNR == 1 { in_spec = 0 }
    !in_spec && /(^|[^A-Za-z0-9_])Spec\{/ { in_spec = 1; depth = 0 }
    in_spec {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ /(^|[{,[:space:]])(Check|RowShards):/) {
            printf "%s:%d: %s\n", FILENAME, FNR, $0 > "/dev/stderr"
            bad = 1
        }
        depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
        if (depth <= 0) in_spec = 0
    }
    END { exit bad }'; then
    echo "docs_check: a parallel.Spec carries a Check or RowShards hook beside its Arrangement" >&2
    fail=1
fi
if grep -rnE '"repro/internal/plan"|^func Grids\(' --include='*.go' \
    internal/tesseract internal/megatron internal/seqpar internal/optimus >&2; then
    echo "docs_check: a family package imports the planner or enumerates its own grids" >&2
    fail=1
fi

# Each shard is placed once (docs/architecture.md §5): a family's
# parallel.View places activations (Figure 4a) and parallel.Weight cuts each
# weight shard (Figure 4b), recording the rectangle a linear's checkpoint
# slots read. A Distribute or Collect function in summa or such a method on
# tesseract.Proc, a BlockRow helper, or a family package working a slot's
# rectangle out again through BlockState or FullState is the second copy of
# Figure 4 growing back.
if grep -rnE '^func (\([a-z]+ \*?[A-Za-z]+\) )?(Distribute|Collect)[A-Za-z]*\(' --include='*.go' --exclude='*_test.go' internal/summa >&2 ||
    grep -rnE '^func \([a-z]+ \*?Proc\) (Distribute|Collect)[A-Za-z]*\(' --include='*.go' internal/tesseract >&2 ||
    grep -rnE '\bBlockRow\(' --include='*.go' internal cmd examples bench_test.go >&2 ||
    grep -rnE '\b(BlockState|FullState)\(' --include='*.go' \
        internal/tesseract internal/megatron internal/seqpar internal/optimus >&2; then
    echo "docs_check: a block of Figure 4 is placed a second time beside parallel.View and parallel.Weight" >&2
    fail=1
fi

# A family is its linears (docs/architecture.md §6): it names the two groups
# its activations split over and parallel.View derives the layout methods,
# the layer norm, the block constructors, the step boundary and the one
# gradient queue. A family package that declares one of those methods, a
# layer norm or a pending-gradient type of its own is growing the per-family
# copy back; a Base field on parallel.Layout or mesh.Shape is the rank offset
# no caller set.
if grep -rnE '^func \([a-z]+ \*?[A-Za-z]+\) (Layout|Worker|RowShards|Slice|Distribute|Collect|GatherPooled|EndStep|DrainGradients|NewLayerNorm|NewBlock|NewBlockPhantom)\(|^type [A-Za-z]*([pP]ending|[gG]radSync)[A-Za-z]* |^type LayerNorm ' \
    --include='*.go' internal/tesseract internal/megatron internal/seqpar internal/optimus >&2; then
    echo "docs_check: a family package declares its own activation layout, layer norm, block constructor, step boundary or gradient queue" >&2
    fail=1
fi
if grep -nE '^[[:space:]]+([A-Za-z]+, *)*Base( *, *[A-Za-z]+)* +int' internal/parallel/registry.go internal/mesh/mesh.go >&2; then
    echo "docs_check: parallel.Layout or mesh.Shape has a Base rank offset again" >&2
    fail=1
fi

# A family that is another family's layers under a name of its own — optimus
# is tesseract's at depth 1, seqpar megatron's under the RowSharded bracket —
# is a registration (docs/architecture.md §6). A type or a Forward/Backward
# method in either package is a layer of its own growing back beside the
# ones it runs.
if grep -rnE '^type |^func \([a-z]+ \*?[A-Za-z]+\) (Forward|Backward)\(' --include='*.go' \
    internal/optimus internal/seqpar >&2; then
    echo "docs_check: optimus or seqpar declares a type or layer code of its own" >&2
    fail=1
fi

# One local linear (docs/architecture.md §6): parallel.Dense, cut from a
# parallel.Weight, is the GEMM under every family's head, the 1-D families'
# patch embedding and Megatron-LM's column- and row-parallel linears, and a
# nil rng builds its shape-only form. An nn.NewLinear call in non-test Go of
# internal/parallel or a family package is the serial layer with no
# shape-only form growing back; a compute.MatMulBias* call in non-test Go of
# internal/megatron is the fused-epilogue GEMM written again beside the core.
if grep -rn 'nn\.NewLinear(' --include='*.go' --exclude='*_test.go' \
    internal/parallel internal/megatron internal/seqpar internal/tesseract internal/optimus >&2 ||
    grep -rn 'compute\.MatMulBias' --include='*.go' --exclude='*_test.go' internal/megatron >&2; then
    echo "docs_check: a linear's local GEMM is written beside parallel.Dense again" >&2
    fail=1
fi

# One model (docs/architecture.md §6): parallel.Model is the network the
# trainer, the server and every replay run — with an embedding and a head the
# classifier, without them the paper's block stack — so a price and a
# training step run one walk. A struct field Blocks []Layer in non-test Go of
# internal/, cmd/ or examples/ outside internal/parallel/model.go is a
# second model walking the blocks its own way.
if grep -rnE '^[[:space:]]+Blocks[[:space:]]+\[\](parallel\.)?Layer([[:space:]]|$)' --include='*.go' --exclude='*_test.go' \
    internal cmd examples | grep -v '^internal/parallel/model\.go:' >&2; then
    echo "docs_check: a second model holds its own blocks beside parallel.Model" >&2
    fail=1
fi

# A served batch is priced as the server runs it (docs/architecture.md, "The
# serving objective"): parallel.Replay.Forward ends with the clock agreement
# serve.Server pays per batch, and
# serve.TestEveryServingPredictionEqualsItsMeasurement holds the price to the
# batcher. A MeasureLayout, ServingMeasur…, ServingValidation or
# ValidateServing… in non-test Go under internal/, cmd/ or examples/ is the
# measured serving twin growing back beside the test.
if grep -rnE '\b(MeasureLayout|ServingMeasur[A-Za-z]*|ServingValidation[A-Za-z]*|ValidateServing[A-Za-z]*)\b' \
    --include='*.go' --exclude='*_test.go' internal cmd examples >&2; then
    echo "docs_check: a measured serving twin is back beside the serving price" >&2
    fail=1
fi

# Each rank draws only its own rectangle of a weight (docs/architecture.md
# §6): parallel.Weight is a recipe — the generator state at its first
# element — and a cut draws its block alone by jump-ahead. An XavierMatrix
# call in non-test Go of internal/parallel or a family package is every rank
# drawing the full weight to copy its block out, the whole model per rank.
if grep -rn 'XavierMatrix(' --include='*.go' --exclude='*_test.go' \
    internal/parallel internal/tesseract internal/megatron internal/optimus internal/seqpar >&2; then
    echo "docs_check: a rank draws a full weight instead of its own rectangle" >&2
    fail=1
fi

# Arithmetic and its simulated seconds move together (internal/compute): a
# GEMM is charged and run by one compute call, so timing and values cannot
# drift apart. A tensor.GEMMFlops or tensor.MatMul* call in non-test Go
# anywhere else in internal/ or cmd/ is a hand-charged copy growing back;
# internal/tensor is the kernels and internal/nn the serial reference, both
# off the clock (as is an example's serial check).
if grep -rnE 'tensor\.GEMMFlops\(|tensor\.MatMul' --include='*.go' --exclude='*_test.go' internal cmd |
    grep -vE '^internal/(compute|tensor|nn)/' >&2; then
    echo "docs_check: a GEMM is charged or run outside internal/compute" >&2
    fail=1
fi
# The attention core is one compute operation (compute.AttentionForward and
# AttentionBackward): one closed-form charge on real and phantom operands
# alike, so a phantom replay's clock is its real twin's bit for bit. A
# FlopsPerSoftmax in non-test Go under internal/parallel is a second,
# phantom-only charge path growing back beside it.
if grep -rn 'FlopsPerSoftmax' --include='*.go' --exclude='*_test.go' internal/parallel >&2; then
    echo "docs_check: the attention core is charged outside internal/compute" >&2
    fail=1
fi

# Every partial gradient lands in one place, parallel.Grads.Land
# (docs/architecture.md §6): a layer computes the partial into its
# parameter's Grad, names the group it sums over (nil: none), and Land sums
# it in place by DrainGradients. An AccumGrad call in non-test Go outside
# internal/nn (the serial reference) — a gradient computed in a buffer of its
# own and added in afterwards — or a DeferAllReduce or QueueGradSync
# anywhere, is a per-family copy of that choice growing back.
if grep -rn 'AccumGrad(' --include='*.go' --exclude='*_test.go' internal cmd examples |
    grep -v '^internal/nn/' >&2 ||
    grep -rnE 'DeferAllReduce|QueueGradSync' --include='*.go' --exclude='*_test.go' . >&2; then
    echo "docs_check: a partial gradient is finished outside parallel.Grads.Land" >&2
    fail=1
fi

# A rank's state lives on its dist.Worker (docs/architecture.md §1): the
# traffic it booked, its step-sample ring and its failure. Cluster.Stats,
# the Monitor's reads, Failure and Survivors fold over the workers. A
# …Shard or …Book type or a failMu in non-test Go under internal/dist is a
# per-rank side store growing back beside the Worker.
if grep -rnE '^type [A-Za-z0-9_]*(Shard|Book)[[:space:]]|failMu' \
    --include='*.go' --exclude='*_test.go' internal/dist >&2; then
    echo "docs_check: per-rank state kept outside dist.Worker" >&2
    fail=1
fi

# The paper's §1/§3.1 transmission claim is measured (tables.TransmissionStudy
# reads a run's dist.Stats and MaxClock), not restated: internal/claims and
# cmd/comm-model, or a closed-form transfer count, lower bound or
# isoefficiency function outside a test, is the unchecked side channel
# growing back. Any function or method with Transfer or LowerBound anywhere
# in its name counts (summaTransferCount, transfersAt, …).
if [ -e internal/claims ] || [ -e cmd/comm-model ] ||
    grep -rnE 'internal/claims|cmd/comm-model|func (\([^)]*\) )?[A-Za-z0-9_]*([Tt]ransfer|LowerBound)[A-Za-z0-9_]*\(|func Isoefficiency[A-Za-z0-9]*\(' \
        --include='*.go' --exclude='*_test.go' . >&2; then
    echo "docs_check: the closed-form transmission claims are back beside the measured study" >&2
    fail=1
fi

# The machine is one value (docs/architecture.md, "The cost model and
# phantom mode"): dist.Machine carries the cost model and the node size, and
# plan.Topology's Cost and GPUsPerNode are its two fields until the
# benchmark's adapter stops spelling them. A struct field named GPUsPerNode, or of type CostModel,
# anywhere else in non-test Go under internal/ or cmd/ is the machine being
# threaded in pieces again. The awk tracks the enclosing struct type by brace
# depth, comments stripped.
if ! find internal cmd -name '*.go' ! -name '*_test.go' | sort | xargs awk '
    FNR == 1 { st = "" }
    st == "" && /^[[:space:]]*type [A-Za-z0-9_]+ struct[[:space:]]*\{/ { st = $2; depth = 0 }
    st != "" {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ /^[[:space:]]+([A-Za-z_][A-Za-z0-9_]*[[:space:]]*,[[:space:]]*)*GPUsPerNode([[:space:],]|$)/ ||
            line ~ /^[[:space:]]+([A-Za-z_][A-Za-z0-9_]*[[:space:],]+)*\*?(dist\.)?CostModel[[:space:]]*$/) {
            if (!(FILENAME == "internal/dist/cost.go" && st == "Machine") &&
                !(FILENAME == "internal/plan/plan.go" && st == "Topology")) {
                printf "%s:%d: %s: %s\n", FILENAME, FNR, st, $0 > "/dev/stderr"
                bad = 1
            }
        }
        depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
        if (depth <= 0) st = ""
    }
    END { exit bad }'; then
    echo "docs_check: a GPUsPerNode or CostModel field outside dist.Machine and plan.Topology" >&2
    fail=1
fi

# The element width is one constant, tensor.ElemBytes: the wire (dist), the
# workspace (tensor) and the footprint (parallel) price a shape with it. A
# literal 8 multiplying a count in those packages is a second copy of the
# width; a FLOP count (8*float64(...)) is not a byte price.
if grep -rnE '(^|[^0-9A-Za-z_.])8 ?\*|\* ?8([^0-9A-Za-z_.]|$)' --include='*.go' --exclude='*_test.go' \
    internal/dist internal/tensor internal/parallel | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//|8 ?\* ?float64\(' >&2; then
    echo "docs_check: a byte price with a literal element width instead of tensor.ElemBytes" >&2
    fail=1
fi

# CI selects what it names: every alternative of a -run, -bench or -fuzz
# pattern in .github/workflows/ci.yml matches at least one test, benchmark or
# fuzz target that `go test -list` finds in the packages of its command. A
# step that names a test nobody wrote passes in silence and checks nothing.
# ('^$', which selects nothing on purpose, is skipped.) The awk prints one
# "flag alternative packages…" line per go test command and alternative.
selections="$(sed 's/&&/\n/g' .github/workflows/ci.yml | awk '
    /go test/ {
        sub(/.*go test/, "")
        gsub(/\047/, "")
        pkgs = ""; n = 0
        for (i = 1; i <= NF; i++) {
            if ($i ~ /^-(run|bench|fuzz)$/ && i < NF) { flag[++n] = $i; pat[n] = $(i + 1); i++ }
            else if ($i == "." || $i ~ /^\.\//) pkgs = pkgs " " $i
        }
        for (j = 1; j <= n; j++) {
            k = split(pat[j], alt, "|")
            for (a = 1; a <= k; a++) if (alt[a] != "^$") print flag[j], alt[a] pkgs
        }
    }' | sort -u)"
[ -n "$selections" ] || { echo "docs_check: found no go test selection in ci.yml" >&2; fail=1; }
# Every package the selections name is listed once, in one go test -list
# run, which prints a package's names and then its ok (or ?, or FAIL) line:
# the first awk turns that into "import-path name" lines. The second matches
# each alternative against the names in its own packages (a directory ./d/
# is the module's package d, ./d/... every package under it).
dirs="$(printf '%s\n' "$selections" | awk '{ for (i = 3; i <= NF; i++) print $i }' | sort -u)"
listed="$(go test -list . $dirs 2>&1)" || { printf '%s\n' "$listed" >&2; fail=1; }
names="$(printf '%s\n' "$listed" | awk '
    /^(ok|FAIL|\?)[[:space:]]/ { for (i = 1; i <= n; i++) print $2, name[i]; n = 0; next }
    /^(Test|Benchmark|Example|Fuzz)/ { name[++n] = $1 }')"
unmatched="$(printf '%s\n' "$selections" | awk -v module="$(go list -m)" -v names="$names" '
    BEGIN {
        n = split(names, line, "\n")
        for (i = 1; i <= n; i++) { split(line[i], f, " "); pkg[i] = f[1]; name[i] = f[2] }
    }
    {
        kinds = "^(Test|Example|Fuzz)"
        if ($1 == "-bench") kinds = "^Benchmark"
        if ($1 == "-fuzz") kinds = "^Fuzz"
        found = 0; pkgs = ""
        for (j = 3; j <= NF; j++) {
            pkgs = pkgs (j > 3 ? " " : "") $j
            d = $j; sub(/^\.\/?/, "", d); sub(/\/$/, "", d)
            path = d == "" ? module : module "/" d
            tree = ""
            if (path ~ /\/\.\.\.$/) tree = substr(path, 1, length(path) - 4)
            for (i = 1; i <= n && !found; i++) {
                if (pkg[i] != path && (tree == "" || (pkg[i] != tree && index(pkg[i], tree "/") != 1))) continue
                found = name[i] ~ kinds && name[i] ~ $2
            }
        }
        if (!found) printf "docs_check: ci.yml\047s go test %s alternative \047%s\047 matches nothing in %s\n", $1, $2, pkgs
    }')"
if [ -n "$unmatched" ]; then
    printf '%s\n' "$unmatched" >&2
    fail=1
fi

# An internal package outside the import graph of every command, example and
# the benchmark is code only its own tests run. internal/testutil is the
# tests' shared helper and the one exception.
shipped="$({ go list -deps ./cmd/... ./examples/... && go -C bench list -deps .; } | sort -u)" || fail=1
for pkg in $(go list ./internal/...); do
    [ "$pkg" = "repro/internal/testutil" ] && continue
    if ! printf '%s\n' "$shipped" | grep -qxF "$pkg"; then
        echo "docs_check: $pkg is imported by no command, example or the benchmark" >&2
        fail=1
    fi
done

for doc in README.md docs/*.md; do
    [ -f "$doc" ] || { echo "docs_check: $doc missing" >&2; fail=1; continue; }
    dir="$(dirname "$doc")"
    # Extract relative markdown link targets: [text](target), skipping
    # absolute URLs and in-page anchors, dropping any #fragment suffix.
    targets="$(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//; s/#.*$//' |
        grep -v '^$' | grep -v '^[a-z][a-z0-9+.-]*:' | sort -u || true)"
    for t in $targets; do
        if [ ! -e "$dir/$t" ] && [ ! -e "$t" ]; then
            echo "docs_check: $doc links to missing target '$t'" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "docs_check: FAILED" >&2
    exit 1
fi
echo "docs_check: OK"
