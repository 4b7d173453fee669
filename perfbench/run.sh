#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (Go build cache
# included, so nothing is written outside the checkout) and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mac-paper --seed 2019 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -trimpath -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
