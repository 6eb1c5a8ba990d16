#!/usr/bin/env bash
# Lists the non-test functions and methods declared under internal/ that no
# binary links, and checks the list against examples/testdata/unlinked.txt.
#
# Every main package (./cmd/..., ./examples/... and the bench harness) is
# built with inlining off, so a function that is only ever inlined still
# shows up as a symbol. The text symbols under ccf/internal/ (generic shape
# brackets, closure and method-value suffixes stripped) are the linked set;
# every `func` declared in a non-test file under internal/ that is not in it
# is printed, one per line, as it appears in the recording.
#
# It fails if it prints a name the recording lacks (new code nothing runs:
# delete it, or record it with the reason it stays), or if the recording
# names a function no longer declared (strike the line). A recorded name
# that a toolchain does link is tolerated, so an older Go whose linker keeps
# more never fails where a newer one passed. DESIGN.md §18 says which
# entries are legitimate.
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -gcflags=all=-l -o "$bin/" ./cmd/... ./examples/...
go build -C bench -gcflags=all=-l -o "$bin/bench" .

for b in "$bin"/*; do go tool nm "$b"; done |
	sed -En 's/^ *[0-9a-f]* [Tt] (ccf\/internal\/.*)$/\1/p' |
	sed -E ':a; s/\[[^][]*\]//; ta; s/-fm$//; s/\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*$//' |
	sort -u >"$bin/linked"

find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	pkg="ccf/$(dirname "$f")"
	sed -En \
		-e 's#^func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*#'"$pkg"'.(*\2).\4#p' \
		-e 's#^func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*#'"$pkg"'.\2.\4#p' \
		-e 's#^func ([A-Za-z_0-9]+).*#'"$pkg"'.\1#p' "$f"
done | grep -v '\.init$' | sort -u >"$bin/declared"

comm -23 "$bin/declared" "$bin/linked" | tee "$bin/unlinked"
grep -Ev '^(#|$)' examples/testdata/unlinked.txt | sort -u >"$bin/recorded"

status=0
while read -r name; do
	echo "unlinked.sh: not recorded in examples/testdata/unlinked.txt: $name" >&2
	status=1
done < <(comm -23 "$bin/unlinked" "$bin/recorded")
while read -r name; do
	echo "unlinked.sh: recorded but no longer declared: $name" >&2
	status=1
done < <(comm -13 "$bin/declared" "$bin/recorded")
exit $status
