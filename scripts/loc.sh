#!/bin/sh
# loc.sh [base-ref] — the "net lines" figure of a simplicity PR as a command:
# non-test, non-testdata Go lines of the root module at base-ref (default
# HEAD~1) and in the checked-out tree (HEAD once committed; tracked and
# staged files as they are on disk before that), the difference, and under
# it the same difference for every directory it is not zero in ("." is the
# root package). Then the same figures for the _test.go files, prefixed
# "tests": a directory whose code net is negative and whose test net is
# positive by as much only moved its lines into tests. benchmarks/perf is a
# module of its own and is not counted.
set -eu

cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"

code() { grep -E '\.go$' | grep -Ev '_test\.go$|(^|/)testdata/|^benchmarks/perf/'; }
tests() { grep -E '_test\.go$' | grep -Ev '(^|/)testdata/|^benchmarks/perf/'; }

# per_file FILTER: one "<sign><lines> <dir>" record per file FILTER passes,
# both sides in one stream.
per_file() {
	git ls-tree -r --name-only "$base" | $1 | while read -r f; do
		printf -- '-%d %s\n' "$(git cat-file blob "$base:$f" | wc -l)" "$(dirname "$f")"
	done
	git ls-files | $1 | while read -r f; do
		[ -f "$f" ] && printf '+%d %s\n' "$(wc -l <"$f")" "$(dirname "$f")"
	done
}

# summarize LABEL: the totals and per-directory nets of per_file's records.
summarize() {
	awk -v base="$base" -v label="$1" '
		{ if ($1 < 0) before -= $1; else after += $1; net[$2] += $1 }
		END {
			printf "%s%s\t%d\n%snow\t%d\n%snet\t%+d\n", label, base, before, label, after, label, after - before
			for (d in net) if (net[d] != 0) printf "  %+d\t%s\n", net[d], d | "sort -k2"
			close("sort -k2")
		}'
}

per_file code | summarize ""
per_file tests | summarize "tests "
