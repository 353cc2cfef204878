#!/usr/bin/env bash
# Benchmark harness for the automaton kernel, lazy exploration,
# observability, query-planner and persistent-store layers.
#
# Runs the curated benchmark set — the BenchmarkLazy* eager-vs-lazy
# families and the BenchmarkAlloc* allocation benchmarks over the
# product-heavy generators in internal/gen, the pipeline benchmarks that
# exercise containment/equivalence and the model checker end to end, the
# compile benchmarks (past formula → DFA, formula → Streett automaton,
# and the 500-formula compile/classify/probe replay of the classify-cold
# universe), the bisimulation quotient every compiled formula runs
# (BenchmarkReduce), the BenchmarkObs* observability-overhead probes, and the
# BenchmarkPlan* planner families (planned fast path vs lazy/eager Streett per
# hierarchy class), and the BenchmarkStore* cold-vs-warm engine-boot
# families over the persistent verdict store — and converts the output
# into a JSON snapshot via cmd/benchjson, which also enforces the
# lazy-vs-eager gate: on the shallow-witness families, the lazy path
# must materialize at most half the states the eager oracle does. The
# full run additionally gates the planner's safety family (the planned
# bad-prefix procedure must be at least 2x faster than the lazy Streett
# path on the same query) and the warm-restart family (a warm engine
# boot over a seeded store must classify the suite at least 2x faster
# than a cold boot that computes everything).
#
# The obs-disabled benchmarks are the free-when-off contract in numbers:
# they run at a fixed large iteration count (their ops are nanoseconds,
# so -benchtime 50x would be pure noise) and gate at 5% — a counter Inc
# or disabled span on the hot path must stay free.
#
#   scripts/bench.sh          full run: real benchtime, ns gate, writes
#                             BENCH_pr9.json, and fails on >20% ns/op or
#                             allocs/op regression against the previous
#                             snapshot (BENCH_pr8.json), plus the 5% obs
#                             overhead gate, the 2x planner safety gate
#                             and the 2x warm-restart gate
#   scripts/bench.sh -quick   smoke run (benchtime=1x): each benchmark
#                             executes once and only the deterministic
#                             states/op gate is enforced — this is what
#                             scripts/check.sh runs
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [ "${1:-}" = "-quick" ]; then
    MODE=quick
fi

SNAP=BENCH_pr9.json
PREV=BENCH_pr8.json
CURATED='^(BenchmarkLazy|BenchmarkAlloc|BenchmarkObs|BenchmarkPlan|BenchmarkStore|BenchmarkEquivalent$|BenchmarkVerifyPeterson$|BenchmarkVerifySemaphore$|BenchmarkE14ModelCheck$|BenchmarkPastToDFA$|BenchmarkCompileFormula$|BenchmarkCompileUniverse$|BenchmarkReduce$)'
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "$MODE" = "quick" ]; then
    echo "== bench smoke (benchtime=1x, states gate only) =="
    go test -run '^$' -bench "$CURATED" -benchtime 1x -benchmem . > "$tmp/bench.txt"
    # 1x timings are noise: enforce only the deterministic states/op
    # contract and write the snapshot to a scratch path.
    go run ./cmd/benchjson -pr pr9-quick -i "$tmp/bench.txt" -o "$tmp/bench.json"
    echo "bench smoke ok"
    exit 0
fi

echo "== bench (full) =="
go test -run '^$' -bench "$CURATED" -benchtime 50x -benchmem -count 3 . | tee "$tmp/bench.txt"

# Nanosecond-scale obs benchmarks re-run at a fixed high iteration count
# for stable figures; these lines replace the 50x ones in the snapshot
# input (benchjson averages duplicate names, so drop the noisy pass).
echo "== bench (obs overhead, 100000x) =="
go test -run '^$' -bench '^BenchmarkObs' -benchtime 100000x -benchmem -count 3 . | tee "$tmp/obs.txt"
grep -v '^BenchmarkObs' "$tmp/bench.txt" > "$tmp/merged.txt"
cat "$tmp/obs.txt" >> "$tmp/merged.txt"

args=(-pr pr9 -i "$tmp/merged.txt" -o "$tmp/bench.json" -ns-gate)
if [ -f "$SNAP" ]; then
    # Re-runs gate against the committed pr9 snapshot before replacing it.
    args+=(-compare "$SNAP" -tolerance 0.2)
elif [ -f "$PREV" ]; then
    # First pr9 run gates against the previous PR's snapshot.
    args+=(-compare "$PREV" -tolerance 0.2)
fi
go run ./cmd/benchjson "${args[@]}"

# Obs overhead gate: the disabled-sink path may regress at most 5%
# against the committed snapshot. Allocation gate is exact (tolerance 0):
# the disabled path is contractually alloc-free.
if [ -f "$SNAP" ]; then
    grep '^BenchmarkObsDisabled' "$tmp/obs.txt" > "$tmp/obsgate.txt" || true
    if [ -s "$tmp/obsgate.txt" ]; then
        go run ./cmd/benchjson -pr pr9-obs -i "$tmp/obsgate.txt" -o /dev/null \
            -compare "$SNAP" -tolerance 0.05 -allocs-tolerance 0 -lazy-gate ''
        echo "obs overhead gate ok (≤5% vs $SNAP)"
    fi
fi

# Planner safety gate: on the safety-class containment family the
# planned bad-prefix reachability must be >=2x faster than the lazy
# Streett path run on the identical query. Averaged over -count runs.
echo "== planner safety gate (planned <= lazy/2) =="
planned_ns=$(awk '$1 ~ /^BenchmarkPlanSafetyContains\/planned/ { s += $3; n++ } END { if (n) printf "%.1f", s / n }' "$tmp/merged.txt")
lazy_ns=$(awk '$1 ~ /^BenchmarkPlanSafetyContains\/lazy/ { s += $3; n++ } END { if (n) printf "%.1f", s / n }' "$tmp/merged.txt")
if [ -z "$planned_ns" ] || [ -z "$lazy_ns" ]; then
    echo "planner safety gate: BenchmarkPlanSafetyContains missing from bench output" >&2
    exit 1
fi
if awk -v p="$planned_ns" -v l="$lazy_ns" 'BEGIN { exit !(2 * p > l) }'; then
    echo "planner safety gate: planned ${planned_ns} ns/op vs lazy ${lazy_ns} ns/op — less than 2x" >&2
    exit 1
fi
echo "planner safety gate ok (planned ${planned_ns} ns/op, lazy ${lazy_ns} ns/op)"

# Warm-restart gate: a fresh engine booted over a seeded verdict store
# must classify the benchmark suite at least 2x faster than a cold boot
# that computes (and persists) everything. Averaged over -count runs.
echo "== warm-restart gate (warm <= cold/2) =="
cold_ns=$(awk '$1 ~ /^BenchmarkStoreColdStart/ { s += $3; n++ } END { if (n) printf "%.1f", s / n }' "$tmp/merged.txt")
warm_ns=$(awk '$1 ~ /^BenchmarkStoreWarmStart/ { s += $3; n++ } END { if (n) printf "%.1f", s / n }' "$tmp/merged.txt")
if [ -z "$cold_ns" ] || [ -z "$warm_ns" ]; then
    echo "warm-restart gate: BenchmarkStoreColdStart/WarmStart missing from bench output" >&2
    exit 1
fi
if awk -v w="$warm_ns" -v c="$cold_ns" 'BEGIN { exit !(2 * w > c) }'; then
    echo "warm-restart gate: warm ${warm_ns} ns/op vs cold ${cold_ns} ns/op — less than 2x" >&2
    exit 1
fi
echo "warm-restart gate ok (warm ${warm_ns} ns/op, cold ${cold_ns} ns/op)"

mv "$tmp/bench.json" "$SNAP"
echo "wrote $SNAP"
