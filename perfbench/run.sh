#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-commit --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary and the reports.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" --out "$build/perfbench" "$@"
