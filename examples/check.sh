#!/usr/bin/env bash
# Builds every example and the CLIs no test executes, runs each and compares
# its stdout byte for byte with the recording under examples/testdata/ (made
# at the parent of PR 20; every one of these prints the same bytes run to
# run). A difference means a rewritten call site changed what the program
# computes: fix the call site, do not re-record.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./examples/... ./cmd/datagen ./cmd/ccfquery ./cmd/ccfbench

check() { # name, command...
	local name=$1
	shift
	"$@" 2>/dev/null | cmp - "examples/testdata/$name.txt"
}
for e in analytics_query failure_injection job_batch motivating online_coflows \
	quickstart skew_handling tpch_join tpch_queries; do
	check "$e" "$bin/$e"
done
check datagen "$bin/datagen" -nodes 8 -scale 0.001
check ccfquery "$bin/ccfquery" -verify
check ccfbench_motivating "$bin/ccfbench" -exp motivating
echo "examples and CLIs: 12 outputs byte-identical to examples/testdata"
