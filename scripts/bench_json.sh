#!/usr/bin/env sh
# Runs the repository benchmarks once and dumps the metrics to a JSON file
# (default BENCH_PR10.json) so CI can archive the perf trajectory per PR.
#
# Usage: scripts/bench_json.sh [output.json]
set -eu

out="${1:-BENCH_PR10.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# -benchtime=1x keeps the smoke pass cheap; the table benches are dominated
# by the 64-worker phantom rows, not by arithmetic. -benchmem reports
# allocations everywhere. No pipe here: a plain redirect keeps `set -e`
# sensitive to a benchmark failure.
go test -run '^$' -bench . -benchtime 1x -benchmem . ./internal/tensor/ > "$tmp"

# BenchmarkTesseractStep carries the PR 2 allocation metric and the PR 3
# overlap + latency metrics, and BenchmarkFamilyStep/{tesseract,optimus,
# megatron} carries the PR 5 family-interface comparison: re-run them at 50
# steps so allocs/step, ns/step and overlap_frac (comm seconds hidden
# behind compute / total comm seconds) are steady-state numbers, not a
# single cold iteration. BenchmarkReshard (PR 7) rides along: its
# reshard_cost_ratio — simulated (collect + restore) seconds over plain-step
# seconds — prices a full elastic re-shard in training steps.
# BenchmarkStraggler's straggler_* metrics (PR 8) come from simulated
# clocks, so the 1x smoke row above is already exact. BenchmarkServeStep
# (PR 9) rides along: 50 saturated serving batches through the continuous
# batcher in one cluster run, reporting allocs/batch plus the simulated
# serve_p50_s/serve_p99_s/serve_thru_rps of the trace. The awk below
# keeps one row per benchmark with the last line winning, so this pass
# overrides the smoke rows.
# PR 10 rows ride the same steady-state pass: BenchmarkFamilyStep/seqpar
# (allocs/step for the fourth family), BenchmarkSeqparMemory
# (seqpar_mem_ratio — peak per-rank live workspace bytes, seqpar over
# megatron), and the pooled AllReduce8/ReduceScatter8 collectives with
# their GB/s throughput.
go test -run '^$' -bench 'TesseractStep|FamilyStep|Reshard|ServeStep|SeqparMemory|AllReduce8|ReduceScatter8' -benchtime 50x -benchmem . >> "$tmp"

# BenchmarkRendezvous/{barrier8,barrier64,ibroadcast64} (PR 13) is the round
# itself on phantom payloads — ns/op is ns per round, next to AllReduce8's
# ns per round-with-bytes. A round is microseconds, so it gets its own
# iteration count: 50 would time the cluster start-up, not the rounds.
go test -run '^$' -bench 'Rendezvous' -benchtime 20000x -benchmem . >> "$tmp"

# The kernel GFLOPS rows (NN64…NN384, NT256, TN256 since PR 6; the three
# repository-benchmark shapes per orientation since PR 16): one cold
# iteration says nothing about arithmetic throughput, so re-run the NN/NT/TN
# kernel benches long enough for the timer to amortise warm-up. These rows
# override the smoke rows the same way the step rows above do.
go test -run '^$' -bench 'GEMMKernels' -benchtime 0.5s ./internal/tensor/ >> "$tmp"
cat "$tmp"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { n = 0 }
/^Benchmark/ {
    # go test appends "-GOMAXPROCS" to the name on a multi-core runner (none
    # at 1); the committed baselines and bench_check.sh use the bare name.
    name = $1
    sub(/-[0-9]+$/, "", name)
    nsop = ""
    allocs = ""
    bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op") nsop = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
        if ($(i) == "B/op") bytes = $(i - 1)
    }
    extra = ""
    for (i = 2; i <= NF; i++) {
        unit = $(i)
        if (unit ~ /^(MB\/s|GFLOPS|sim-fwd-s|sim-bwd-s|final-loss|cannon-vs-tesseract|tess-221-elems|d4-fwd-s|overlap-frac|planner-top3-err|reshard_cost_ratio|straggler_[a-z0-9_]+|serve_[a-z0-9_]+|seqpar_mem_ratio|GB\/s)$/) {
            gsub(/[^A-Za-z0-9]/, "_", unit)
            extra = extra sprintf(", \"%s\": %s", unit, $(i - 1))
        }
    }
    if (allocs != "") extra = extra sprintf(", \"allocs_per_op\": %s", allocs)
    if (bytes != "") extra = extra sprintf(", \"bytes_per_op\": %s", bytes)
    if (nsop != "") {
        line = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s%s}", name, nsop, extra)
        if (!(name in idx)) {
            idx[name] = n
            n++
        }
        lines[idx[name]] = line
    }
}
END {
    printf "{\n\"generated\": \"%s\",\n\"benchmarks\": [\n", date
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    printf "]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out"
