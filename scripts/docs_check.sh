#!/usr/bin/env sh
# Documentation gate: formatting, vet, and link integrity for the Markdown
# docs. Every relative link target referenced from README.md and docs/*.md
# must exist in the repository, so the package map and the architecture
# notes cannot silently rot as files move. It also holds the GEMM kernel to
# what the docs promise of it: no fused multiply-add (docs/architecture.md §3),
# and the tree to what the package map promises: no internal package that
# nothing shipped imports, and no family package restating its schedule as
# cost-model arithmetic, its footprint as a memory formula, or the shared
# attention and MLP modules as types of its own.
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
