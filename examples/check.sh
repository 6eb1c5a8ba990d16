#!/usr/bin/env bash
# Builds every example and the CLIs no test executes, runs each and compares
# its stdout byte for byte with the recording under examples/testdata/ (every
# one of these prints the same bytes run to run). The examples, datagen,
# ccfquery and `ccfbench -exp motivating` were recorded before the tuple
# layer got its one shuffle path; `ccfbench -exp ablation-hetero` and
# `-exp ablation-topo` at -scale 0.01 (the capacity-aware placer and the
# closed-form CCT on per-port and leaf-spine capacities) before
# placement.WeightedCCF was folded into topology.RackAwareCCF, which changed
# one label in ablation_hetero.txt and failure_injection.txt, "CCF-weighted:"
# to "CCF-rack:". `ccfsim -trace` replaying datagen's trace (written with -o,
# read back by path from the build directory, so the printed path is the
# same on every machine) was recorded before trace.Parse streamed its input.
# A difference means a rewritten call site changed what the program computes:
# fix the call site, do not re-record.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./examples/... ./cmd/datagen ./cmd/ccfquery ./cmd/ccfbench ./cmd/ccfsim

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
check ablation_hetero "$bin/ccfbench" -exp ablation-hetero -scale 0.01
check ablation_topo "$bin/ccfbench" -exp ablation-topo -scale 0.01
"$bin/datagen" -nodes 8 -scale 0.001 -o "$bin/shuffle.trace" 2>/dev/null
check ccfsim_trace env -C "$bin" ./ccfsim -trace shuffle.trace
echo "examples and CLIs: 15 outputs byte-identical to examples/testdata"
