#!/usr/bin/env bash
# bench.sh — run the hot-path tentpole benchmarks and emit a JSON
# snapshot (benchmark name → ns/op, B/op, allocs/op), so the performance
# trajectory is tracked in-repo. The committed BENCH.json is a
# ≥5-iteration snapshot from the PR's own benching box; CI regenerates
# one at the same iteration count and .github/benchgate compares the two
# — allocs_op exactly, b_op within 10%, ns_op informational only (CI
# boxes are noisy) — failing the build on regression.
#
#   ./bench.sh                  # 5 iterations, writes BENCH.json
#   ./bench.sh BENCH_CI.json    # parameterized output name
#   BENCHTIME=20x ./bench.sh    # more iterations for a committed update
#
# GOMAXPROCS is pinned (default 4) so default worker-pool sizes — and
# with them allocation counts — are comparable across machines.
set -euo pipefail
cd "$(dirname "$0")"

BENCHES='BenchmarkMigdIngest|BenchmarkStreamAnalyze|BenchmarkB2Decode|BenchmarkPolicyComparison$|BenchmarkPolicyComparisonModern/|BenchmarkEvictionAged|BenchmarkReplayScaling|BenchmarkCoalescingSavings|BenchmarkSnapshotRoundTrip|BenchmarkDistributedGrid|BenchmarkPeriodicityDetection|BenchmarkTraceGeneration|BenchmarkGenerateStream|BenchmarkMSSReplay|BenchmarkTable2TraceCodec'
OUT=${1:-${BENCH_OUT:-BENCH.json}}
export GOMAXPROCS=${GOMAXPROCS:-4}

raw=$(go test -run '^$' -bench "$BENCHES" -benchtime "${BENCHTIME:-5x}" -benchmem -count 1 .)
echo "$raw"

echo "$raw" | awk '
BEGIN { printf "{\n" }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
    ns = ""; b = ""; al = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i-1)
        if ($i == "B/op")      b  = $(i-1)
        if ($i == "allocs/op") al = $(i-1)
    }
    if (ns == "" || b == "" || al == "") {
        printf "bench.sh: %s is missing ns/op, B/op or allocs/op (was -benchmem dropped?)\n", name > "/dev/stderr"
        bad = 1
        exit 1
    }
    printf "%s  \"%s\": {\"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s}", sep, name, ns, b, al
    sep = ",\n"
}
END { if (bad) exit 1; printf "\n}\n" }
' > "$OUT"

echo "wrote $OUT"
