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
# The *_placers and ccfsim_coflow recordings (every placer and coflow
# scheduler the commands select by name) and `ccfbench -exp telemetry` (the
# coflow table's order and labels) were recorded before the commands read
# one name table; ccfsim_coflow under the old spellings `-coflow fair` and
# `-coflow sequential`, which print the same Name() as their replacements.
# `ccfbench -exp chaos` and `-exp recovery` (the only recordings that run
# Simulator.Failures) were recorded before capacity events and failure edges
# became one schedule in the event loop.
# The ccfquery_join* recordings (a join-rooted plan, distinct and the
# non-partial aggregate over a join) were recorded before query.Exchange took
# a join's two inputs without tagging a copy of every row.
# The paper's figures and the placement ablations at the default (paper)
# scale, `ccfbench -exp fig5`, `fig6`, `fig7` and `ablation-sort`, `-rank`,
# `-pmult`, `-bound` and `-exact`, were recorded before the placer table lost
# any row; each prints the same bytes at every -workers. Deleting the
# CCF-refined placer (Algorithm 1 plus local search) took its line out of
# ablation_bound.txt and its block out of ccfquery_placers.txt; every other
# line stayed.
# A difference means a rewritten call site changed what the program computes:
# fix the call site, do not re-record.
#
# reject then runs each bad flag value the commands must refuse: exit 2 with
# one stderr line, never a panic. A -scale so small that a tuple count
# truncates to 0 is one: the workload would read 0 as "paper default" and
# run at full size.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./examples/... ./cmd/datagen ./cmd/ccfquery ./cmd/ccfbench ./cmd/ccfsim

checked=0 rejected=0
check() { # name, command...
	local name=$1
	shift
	"$@" 2>/dev/null | cmp - "examples/testdata/$name.txt"
	checked=$((checked + 1))
}
reject() { # command...
	local status=0 err
	err=$(timeout 20 "$@" 2>&1 >/dev/null) || status=$?
	if [ "$status" -ne 2 ] || [ -z "$err" ] || [[ $err == *$'\n'* || $err == *panic:* ]]; then
		printf 'reject: %s exited %d, stderr:\n%s\n' "$*" "$status" "$err" >&2
		return 1
	fi
	rejected=$((rejected + 1))
}
ccfsim_placers() {
	for p in hash mini ccf ccf-nosort lpt; do "$bin/ccfsim" -nodes 16 -scale 0.001 -placer "$p"; done
}
ccfsim_coflow() {
	for c in varys aalo fifo scf ncf per-flow-fair sequential-by-dest; do
		env -C "$bin" ./ccfsim -trace shuffle.trace -coflow "$c"
	done
}
datagen_placers() {
	for p in hash mini; do "$bin/datagen" -nodes 8 -scale 0.001 -placer "$p"; done
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
check ccfsim_placers ccfsim_placers
check ccfsim_coflow ccfsim_coflow
check ccfquery_placers "$bin/ccfquery" -verify -placers hash,mini,ccf,lpt
check ccfquery_join "$bin/ccfquery" -verify -plan 'join(L, R)'
check ccfquery_join_distinct "$bin/ccfquery" -verify -plan 'distinct(rekeymod(join(L, R), 7))'
check ccfquery_join_aggregate "$bin/ccfquery" -verify -plan 'aggregate(rekeydiv(join(L, R), 20))'
check datagen_placers datagen_placers
check telemetry "$bin/ccfbench" -exp telemetry
check chaos "$bin/ccfbench" -exp chaos
check recovery "$bin/ccfbench" -exp recovery
for e in fig5 fig6 fig7 ablation-sort ablation-rank ablation-pmult ablation-bound ablation-exact; do
	check "${e//-/_}" "$bin/ccfbench" -exp "$e"
done

reject "$bin/ccfsim" -nodes 8 -scale 0.0001 -eventsim -coflow bogus
reject "$bin/ccfsim" -nodes 8 -scale 0.0001 -coflow varys
reject "$bin/ccfsim" -trace "$bin/shuffle.trace" -coflow fair
reject "$bin/ccfsim" -trace "$bin/shuffle.trace" -coflow sequential
reject "$bin/ccfsim" -nodes 8 -scale 1e12
reject "$bin/ccfsim" -nodes 8 -scale 1e-8
reject "$bin/ccfsim" -placer random
reject "$bin/ccfsim" -nodes 8 -scale 0.001 -eventsim -bw +Inf
reject "$bin/datagen" -scale -1
reject "$bin/datagen" -scale 0
reject "$bin/datagen" -nodes 8 -scale 1e-8
reject "$bin/datagen" -zipf NaN
reject "$bin/datagen" -placer bogus
reject "$bin/ccfbench" -exp fig5 -scale 1e-8
reject "$bin/ccfbench" -exp recovery -bw NaN
reject "$bin/ccfbench" -exp service-smoke -servicejobs -1
reject "$bin/ccfbench" -exp service-smoke -serviceoffset -1
reject "$bin/ccfbench" -exp service-smoke -servicenodes 0
reject "$bin/ccfbench" -exp service-burst -burstclients 0
reject "$bin/ccfquery" -keys 0
reject "$bin/ccfquery" -nodes 0
reject "$bin/ccfquery" -nodes -3
reject "$bin/ccfquery" -plan M
reject "$bin/ccfquery" -plan 'rekeymod(L, 99999999999999999999)'
reject "$bin/ccfquery" -plan 'join(L'
echo "examples and CLIs: $checked outputs byte-identical to examples/testdata, $rejected bad flag values rejected"
