#!/usr/bin/env sh
# bench_check.sh — the CI perf gate: re-run the tracked hot-path
# benchmarks and compare them against the committed BENCH_10.json. A
# benchmark fails the gate when its ns/op regresses by more than 10%
# (absorbing ordinary machine noise) or its allocs/op regresses at all
# (allocation counts are deterministic, so any increase is a real
# regression). Exit status 1 lists every failing benchmark.
#
# Usage: scripts/bench_check.sh [reference.json]
# Env:   BENCHTIME overrides go test -benchtime (default 1s).
#        NS_TOLERANCE_PCT overrides the ns/op tolerance (default 10).
set -eu
cd "$(dirname "$0")/.."

REF=${1:-BENCH_10.json}
BENCH='^(BenchmarkTraceGenerator|BenchmarkCacheHierarchyAccess|BenchmarkMemoryController|BenchmarkFullSystemSimulation|BenchmarkHybridDRAMHit)$'

if [ ! -f "$REF" ]; then
    echo "bench_check: reference $REF missing (run scripts/bench_json.sh first)" >&2
    exit 2
fi

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

"${GO:-go}" test -run '^$' -bench "$BENCH" -benchmem -benchtime "${BENCHTIME:-1s}" -count 1 . | tee "$RAW" >&2

awk -v tol="${NS_TOLERANCE_PCT:-10}" '
# Reference file: pretty-printed bench_json.sh output — benchmark name
# on its own line, one key per following line. The nested "baseline"
# object sits on a single line and is skipped so only the measured
# top-level values are read.
FNR == NR {
    if (/"baseline"/) next
    if (match($0, /"Benchmark[^"]*"/)) {
        cur = substr($0, RSTART + 1, RLENGTH - 2)
    } else if (cur != "" && /"ns_per_op"/) {
        ref_ns[cur] = field($0, "ns_per_op")
    } else if (cur != "" && /"allocs_per_op"/) {
        ref_allocs[cur] = field($0, "allocs_per_op")
    }
    next
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op") ns[name] = $(i - 1)
        else if ($i == "allocs/op") allocs[name] = $(i - 1)
    }
    checked[++n] = name
}
END {
    bad = 0
    for (i = 1; i <= n; i++) {
        name = checked[i]
        if (!(name in ref_ns)) {
            printf "bench_check: %s missing from reference (regenerate it)\n", name
            bad = 1
            continue
        }
        if (ref_ns[name] > 0 && ns[name] > ref_ns[name] * (1 + tol / 100)) {
            printf "bench_check: FAIL %s: %.0f ns/op vs reference %.0f (%+.1f%%, tolerance %s%%)\n", \
                name, ns[name], ref_ns[name], 100 * (ns[name] - ref_ns[name]) / ref_ns[name], tol
            bad = 1
        }
        if (allocs[name] > ref_allocs[name]) {
            printf "bench_check: FAIL %s: %d allocs/op vs reference %d\n", \
                name, allocs[name], ref_allocs[name]
            bad = 1
        }
    }
    if (n == 0) { print "bench_check: no benchmarks ran"; bad = 1 }
    if (!bad) printf "bench_check: %d benchmarks within tolerance\n", n
    exit bad
}
function field(line, key,    rest) {
    if (!match(line, "\"" key "\":[ ]*[-0-9.e+]+")) return 0
    rest = substr(line, RSTART, RLENGTH)
    sub(/.*:[ ]*/, "", rest)
    return rest + 0
}
' "$REF" "$RAW"
