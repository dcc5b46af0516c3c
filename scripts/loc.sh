#!/bin/sh
# loc.sh [base-ref] — the "net lines" figure of a simplicity PR as a command:
# non-test, non-testdata Go lines of the root module at base-ref (default
# HEAD~1) and in the checked-out tree (HEAD once committed; tracked and
# staged files as they are on disk before that), and the difference.
# benchmarks/perf is a module of its own and is not counted.
set -eu

cd "$(dirname "$0")/.."
base="${1:-HEAD~1}"

counted() { grep -E '\.go$' | grep -Ev '_test\.go$|(^|/)testdata/|^benchmarks/perf/'; }

before=$(git ls-tree -r --name-only "$base" | counted | while read -r f; do
	git cat-file blob "$base:$f"
done | wc -l)
after=$(git ls-files | counted | while read -r f; do
	[ -f "$f" ] && cat "$f"
done | wc -l)

printf '%s\t%d\n' "$base" "$before"
printf 'now\t%d\n' "$after"
printf 'net\t%+d\n' $((after - before))
