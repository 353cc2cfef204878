#!/usr/bin/env bash
# Builds the benchmark program (tbench) and the temporald daemon from the
# sources of this checkout, then runs tbench with the given arguments.
# Run it from the root of the repository:
#
#   bash bench/run.sh --workload classify-cold --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all --seed 1 --out results.json
#   bash bench/run.sh --repeat 3
#
# Everything the build and the runs leave behind (Go build cache, binaries,
# temporary stores, traces) goes under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root/bench" && go build -o "$out/bin/" ./cmd/tbench repro/cmd/temporald) >&2
exec "$out/bin/tbench" -temporald "$out/bin/temporald" -work "$out/tmp" "$@"
