#!/usr/bin/env bash
# Entry point named in BENCHMARK.json; run it from the root of a checkout:
#
#   bash bench/run.sh --workload serve_edge --seed 1 --seconds 16 --trace 0
#
# A benchmark run may write only inside its checkout, so the binary, Go's
# build cache and Go's per-user files all go under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/ccf-bench" .
exec "$build/ccf-bench" "$@"
