#!/bin/sh
# loc.sh [base-ref] — the "net lines" figure of a simplicity PR as a command:
# non-test, non-testdata Go lines of the root module at base-ref (default
# HEAD~1) and in the checked-out tree (HEAD once committed; tracked and
# staged files as they are on disk before that), the difference, and under
# it the same difference for every directory it is not zero in ("." is the
# root package). benchmarks/perf is a module of its own and is not counted.
set -eu

cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"

counted() { grep -E '\.go$' | grep -Ev '_test\.go$|(^|/)testdata/|^benchmarks/perf/'; }

# One "<sign><lines> <dir>" record per counted file, both sides in one stream.
per_file() {
	git ls-tree -r --name-only "$base" | counted | while read -r f; do
		printf -- '-%d %s\n' "$(git cat-file blob "$base:$f" | wc -l)" "$(dirname "$f")"
	done
	git ls-files | counted | while read -r f; do
		[ -f "$f" ] && printf '+%d %s\n' "$(wc -l <"$f")" "$(dirname "$f")"
	done
}

per_file | awk -v base="$base" '
	{ if ($1 < 0) before -= $1; else after += $1; net[$2] += $1 }
	END {
		printf "%s\t%d\nnow\t%d\nnet\t%+d\n", base, before, after, after - before
		for (d in net) if (net[d] != 0) printf "  %+d\t%s\n", net[d], d | "sort -k2"
	}'
