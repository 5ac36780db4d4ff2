#!/usr/bin/env sh
# Documentation gate: formatting, vet, and link integrity for the Markdown
# docs. Every relative link target referenced from README.md and docs/*.md
# must exist in the repository, so the package map and the architecture
# notes cannot silently rot as files move. It also holds the GEMM kernel to
# what the docs promise of it: no fused multiply-add (docs/architecture.md §3).
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
