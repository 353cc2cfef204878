#!/usr/bin/env bash
# Repository gate: formatting, vet, and the full test suite under the
# race detector. Run before sending a PR; CI runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

# bench/ is its own module (replace repro => ../), so ./... above does
# not type-check it; vet it against the internal APIs it compiles with.
echo "== go vet (bench module) =="
(cd bench && go vet ./...)

# The engine package shares one mutex-guarded cache across concurrent
# callers and Batch items; run the lock-copy and struct-tag analyzers
# explicitly over it and the facade that re-exports its types.
echo "== go vet (engine: copylocks, structtag) =="
go vet -copylocks -structtag ./internal/engine/ .

echo "== go test -race =="
go test -race ./...

# The benchmark module's tests replay each workload in-process through
# the planner's public functions (ProbeAutomaton, DecideEmptiness,
# EmptinessWith, ContainsWith), so a planner change that breaks the
# benchmark fails here rather than in the benchmark run.
echo "== go test -race -short (bench module) =="
(cd bench && go test -race -short ./...)

# Concurrency pass: each request runs on one goroutine, but concurrent
# callers and Batch items share automata, kernels and their CAS-published
# analyses across goroutines. These tests run queries over shared
# values from many goroutines at once (Concurrent, RaceStress), and the
# model checker's golden-trace test (GoldenTraces) pins its verdicts,
# counterexample lassos and invariant paths on the verify-protocols
# systems to internal/mc/testdata. They already ran
# inside the -race suite above; this named quick pass documents the
# contract and keeps a fast dedicated entry point for it.
# A package whose tests the pattern no longer matches fails the pass
# rather than running nothing.
echo "== concurrency (-race, quick) =="
conc_run='Concurrent|RaceStress|GoldenTraces'
conc_pkgs=(./internal/omega/ ./internal/mc/ ./internal/engine/ ./internal/autkern/)
for pkg in "${conc_pkgs[@]}"; do
    if ! go test -list "$conc_run" "$pkg" | grep '^Test' > /dev/null; then
        echo "concurrency pass: no test in $pkg matches '$conc_run'" >&2
        exit 1
    fi
done
go test -race -short -count=1 -run "$conc_run" "${conc_pkgs[@]}"

# Work-count pass: the counts behind every "same work" claim — states
# built, decompositions run, refinement rounds, memo traffic — are
# deterministic, so tier-1 pins them (internal/workcounts, ROADMAP
# item 11). -count=1 defeats the test cache, so the pass always replays.
# A package whose tests the pattern no longer matches fails the pass
# rather than running nothing.
echo "== work counts =="
wc_run='WorkCounts'
wc_pkg=./internal/workcounts/
if ! go test -list "$wc_run" "$wc_pkg" | grep '^Test' > /dev/null; then
    echo "work-count pass: no test in $wc_pkg matches '$wc_run'" >&2
    exit 1
fi
go test -count=1 -run "$wc_run" "$wc_pkg"

# Coverage floors, one per package below: the paper's decision
# procedures (omega, core), the kernel and the automata under them
# (autkern, dfa, compile), the model checker, and the serving layers.
# The floors sit ~5 points under the measured coverage at the time each
# was last raised, so genuine additions don't trip them but a change
# that lands untested branches in a floored package does.
echo "== coverage floors =="
cov_floor() { # package, floor (integer percent)
    local pkg=$1 floor=$2 line pct
    line=$(go test -coverprofile=/dev/null "$pkg" | tail -1)
    pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "$pkg: no coverage figure in: $line" >&2; exit 1
    fi
    if awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p < f) }'; then
        echo "$pkg: coverage ${pct}% below floor ${floor}%" >&2; exit 1
    fi
    echo "$pkg: ${pct}% (floor ${floor}%)"
}
cov_floor ./internal/omega/ 84
cov_floor ./internal/core/ 76
cov_floor ./internal/autkern/ 89
cov_floor ./internal/dfa/ 90
# Past-formula compilation feeds every clause automaton; an untested
# operator case here compiles a wrong DFA.
cov_floor ./internal/compile/ 88
# Every Prop. 5.3 clause automaton is built by lang's A, E, R, P and
# simple obligation and reactivity constructors over those DFAs.
cov_floor ./internal/lang/ 89
cov_floor ./internal/mc/ 87
# The observability layer is infrastructure every other layer leans on;
# untested branches here fail silently in production scrapes.
cov_floor ./internal/obs/ 85
cov_floor ./internal/obshttp/ 92
# The planner picks which decision procedure answers a query; a wrong
# untested branch here silently routes queries to the wrong algorithm.
cov_floor ./internal/plan/ 85
cov_floor ./internal/cli/ 80
# The engine is the recovery and cache-hygiene boundary: an untested
# branch here is where a faulted result gets memoized or persisted.
cov_floor ./internal/engine/ 86
# The persistent store is the crash-safety surface: an untested decode
# or recovery branch is exactly where corrupted bytes turn into wrong
# verdicts.
cov_floor ./internal/store/ 85
# The scenario families carry the known-verdict specs the model checker
# is tested against.
cov_floor ./internal/ts/ 90

# Graph-algorithm lint: SCC decomposition, reachability closures and
# state-pair/key interning live in internal/autkern only. A new Tarjan
# (lowlink bookkeeping), a hand-rolled reverse-reachability stack, or an
# ad-hoc `index := map[...]int` interner anywhere else reintroduces the
# duplication this kernel removed.
echo "== autkern lint =="
lint_fail=0
hits=$(grep -rn --include='*.go' -e 'onStack' -e 'lowlink'     internal cmd ./*.go | grep -v '^internal/autkern/' || true)
if [ -n "$hits" ]; then
    echo "SCC implementation outside internal/autkern (use autkern.SCCs*/Kernel.IsCyclic):" >&2
    echo "$hits" >&2; lint_fail=1
fi
hits=$(grep -rn --include='*.go' -e 'index := map\[' -e 'map\[\[2\]int\]'     internal cmd ./*.go | grep -v '^internal/autkern/' | grep -v '_test\.go:' || true)
if [ -n "$hits" ]; then
    echo "ad-hoc interner outside internal/autkern (use autkern.PairInterner/KeyInterner/Interner):" >&2
    echo "$hits" >&2; lint_fail=1
fi
[ "$lint_fail" -eq 0 ] || exit 1
echo "autkern lint ok"

# Planner lint: production code must route containment through the
# planner (engine Check, or plan.ContainsWith), which runs lazy
# omega.ContainsCtx itself when neither reachability tier applies or a
# specialized path fails. Direct ContainsEager calls are for the
# oracle's own home (internal/omega) and differential tests.
echo "== planner lint =="
hits=$(grep -rn --include='*.go' 'ContainsEager' internal cmd ./*.go \
    | grep -v '^internal/omega/' | grep -v '_test\.go:' || true)
if [ -n "$hits" ]; then
    echo "direct ContainsEager outside internal/omega (route through engine Check or plan.ContainsWith):" >&2
    echo "$hits" >&2
    exit 1
fi
echo "planner lint ok"

# Benchmark smoke: every benchmark must still run (one iteration each),
# and bench.sh's quick mode enforces the deterministic lazy-vs-eager
# states gate on the product-heavy families.
echo "== benchmark smoke =="
go test -run '^$' -bench . -benchtime 1x ./... > /dev/null
scripts/bench.sh -quick

# Native fuzz targets: a short coverage-guided smoke per parser. Any
# crasher found here lands in testdata/fuzz/ as a regression seed.
echo "== fuzz smoke (10s per target) =="
go test -run='^$' -fuzz=FuzzLTLParse -fuzztime=10s ./internal/ltl/
go test -run='^$' -fuzz=FuzzRegexParse -fuzztime=10s ./internal/regex/
go test -run='^$' -fuzz=FuzzOmegaParseText -fuzztime=10s ./internal/omega/
go test -run='^$' -fuzz=FuzzStoreDecode -fuzztime=10s ./internal/store/

# CLI failure modes: malformed or refused inputs must exit non-zero with
# a one-line diagnostic on stderr — never a stack trace, never success.
echo "== CLI exit codes =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp" ./cmd/classify ./cmd/speccheck

cli_must_fail() { # name, expected stderr substring, then the command
    local name=$1 want=$2; shift 2
    local out rc=0
    out=$("$@" 2>&1 >/dev/null) || rc=$?
    if [ "$rc" -eq 0 ]; then
        echo "$name: expected non-zero exit" >&2; exit 1
    fi
    if [[ "$out" == *goroutine* || "$out" == *panic:* ]]; then
        echo "$name: stack trace leaked to the user:" >&2
        echo "$out" >&2; exit 1
    fi
    if [[ "$out" != *"$want"* ]]; then
        echo "$name: diagnostic missing '$want':" >&2
        echo "$out" >&2; exit 1
    fi
}

# Daemon smoke: temporald must come up, serve /healthz and /metrics with
# the canonical engine metric families, classify over HTTP, and die
# cleanly. Uses -addr-file + the built-in -probe client, so the check
# needs no curl and no fixed port.
echo "== temporald smoke =="
go build -o "$tmp" ./cmd/temporald
"$tmp/temporald" -addr 127.0.0.1:0 -addr-file "$tmp/addr" &
temporald_pid=$!
for _ in $(seq 1 50); do
    [ -s "$tmp/addr" ] && break
    sleep 0.1
done
if [ ! -s "$tmp/addr" ]; then
    echo "temporald did not write its address file" >&2
    kill "$temporald_pid" 2>/dev/null || true
    exit 1
fi
daemon_addr=$(cat "$tmp/addr")
probe_out=$("$tmp/temporald" -probe "$daemon_addr")
for metric in engine_cache_hits engine_cache_misses \
    omega_lazy_states_materialized budget_exceeded engine_panics_recovered \
    plan_fallbacks; do
    if ! grep -q "$metric" <<<"$probe_out"; then
        echo "temporald /metrics missing $metric" >&2
        kill "$temporald_pid" 2>/dev/null || true
        exit 1
    fi
done
kill "$temporald_pid"
wait "$temporald_pid" 2>/dev/null || true
echo "temporald smoke ok ($daemon_addr)"

# Warm-start smoke: boot the daemon against a verdict store, classify
# once, SIGTERM it (the drain path flushes write-behind verdicts), boot
# a second daemon on the same store, classify the same formula, and
# require the second boot to have served from disk (store_hits > 0 in
# /metrics) with the store healthy in /healthz.
echo "== temporald warm-start smoke =="
store_boot() { # addr-file path
    "$tmp/temporald" -addr 127.0.0.1:0 -addr-file "$1" -store "$tmp/verdicts.log" &
    temporald_pid=$!
    for _ in $(seq 1 50); do
        [ -s "$1" ] && break
        sleep 0.1
    done
    if [ ! -s "$1" ]; then
        echo "temporald (-store) did not write its address file" >&2
        kill "$temporald_pid" 2>/dev/null || true
        exit 1
    fi
}
store_boot "$tmp/addr1"
"$tmp/temporald" -probe "$(cat "$tmp/addr1")" -classify 'G (req -> F ack)' > /dev/null
kill "$temporald_pid"
wait "$temporald_pid" 2>/dev/null || true
if [ ! -s "$tmp/verdicts.log" ]; then
    echo "first boot persisted nothing to $tmp/verdicts.log" >&2
    exit 1
fi
store_boot "$tmp/addr2"
warm_out=$("$tmp/temporald" -probe "$(cat "$tmp/addr2")" -classify 'G (req -> F ack)')
kill "$temporald_pid"
wait "$temporald_pid" 2>/dev/null || true
if ! grep -q '"store_enabled":true' <<<"$warm_out"; then
    echo "second boot /healthz does not report an enabled store:" >&2
    echo "$warm_out" | head -5 >&2
    exit 1
fi
warm_hits=$(grep '^store_hits ' <<<"$warm_out" | awk '{print $2}')
if [ -z "$warm_hits" ] || [ "$warm_hits" -eq 0 ]; then
    echo "second boot served no disk-warm verdicts (store_hits=${warm_hits:-missing})" >&2
    exit 1
fi
echo "temporald warm-start smoke ok (store_hits=$warm_hits)"

: > "$tmp/empty.txt"
cli_must_fail "classify empty batch" "empty input" \
    "$tmp/classify" -batch "$tmp/empty.txt"
cli_must_fail "speccheck empty file" "no formulas" \
    "$tmp/speccheck" -f "$tmp/empty.txt"
cli_must_fail "classify mismatched alphabet" "not in alphabet" \
    "$tmp/classify" -op R -regex '.*c' -alphabet ab
cli_must_fail "classify budget exceeded" "budget exceeded" \
    "$tmp/classify" -budget 1 'G (req -> F ack)'
cli_must_fail "speccheck budget exceeded" "budget exceeded" \
    "$tmp/speccheck" -budget 1 'G (req -> F ack)'

echo "ok"
