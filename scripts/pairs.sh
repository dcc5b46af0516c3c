#!/bin/sh
# pairs.sh <parent-ref> <bench-regex> [runs] [package] — compare a change with
# its parent in alternating pairs of microbenchmark runs, and print the
# ledger entry (BENCH_<pr>.json at the repository root) as JSON.
#
# It builds each side's test binary of package (default ".") once: the
# parent's from an extracted copy of parent-ref under .bench_build/pairs,
# the head's from the working tree as it is. It then runs them runs times
# each (default 10), alternately, the side that runs first alternating too,
# each run `-test.bench bench-regex -test.benchmem -test.cpu 1 -test.count 3
# -test.benchtime 20x` (with a 30-minute timeout) from its package directory:
# every run times the same number of iterations, and its value is the median
# of its three repetitions. PAIRS_COUNT and BENCHTIME (a count, or a
# duration) override the 3 and the 20x. PAIRS_OVERLAY, if set, lists files (paths
# from the repository root, space-separated) copied from the working tree
# into the parent's copy before its build, so that a benchmark the change
# adds or extends runs on both sides; the entry's command records it. The
# raw outputs stay in .bench_build/pairs; cmd/skledger summarizes them: per
# benchmark and metric (ns/op, B/op, allocs/op and every custom metric), the
# medians, quartiles and values of both sides and the number of pairs in
# which the head was better and worse, and for ns/op the median head/parent
# ratio with a bootstrap 95 % interval, labelled better or worse only when
# the interval excludes 1. `sh scripts/ci.sh ledger-check` validates the
# committed entries.
#
#   sh scripts/pairs.sh HEAD~1 'DurableRanked|DurableTopK' 10 > BENCH_54.json
set -eu

cd "$(dirname "$0")/.."
if [ $# -lt 2 ]; then
	echo "usage: scripts/pairs.sh <parent-ref> <bench-regex> [runs] [package]" >&2
	exit 2
fi
ref="$1" regex="$2" runs="${3:-10}" pkg="${4:-.}"
root="$(pwd)"
work="$root/.bench_build/pairs"
parent="$(git rev-parse --verify "$ref^{commit}")"
head="$(git rev-parse HEAD)"
git diff --quiet HEAD -- || head="$head+dirty"

rm -rf "$work"
mkdir -p "$work/parent"
git archive "$parent" | tar -x -C "$work/parent"
for f in ${PAIRS_OVERLAY:-}; do
	cp "$f" "$work/parent/$f"
done
(cd "$work/parent" && go test -c -o "$work/parent.test" "$pkg") >&2
go test -c -o "$work/head.test" "$pkg" >&2

run() { # run <side> <i>
	dir="$root/$pkg"
	[ "$1" = parent ] && dir="$work/parent/$pkg"
	echo "run $2 $1" >&2
	(cd "$dir" && "$work/$1.test" -test.run '^$' -test.bench "$regex" -test.benchmem -test.cpu 1 -test.timeout 30m \
		-test.count "${PAIRS_COUNT:-3}" -test.benchtime "${BENCHTIME:-20x}") >"$work/$1.$2.txt"
}
i=1
while [ "$i" -le "$runs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run head "$i"
	else
		run head "$i"
		run parent "$i"
	fi
	i=$((i + 1))
done
go run ./cmd/skledger pairs -parent "$parent" -head "$head" \
	-command "${PAIRS_COUNT:+PAIRS_COUNT=$PAIRS_COUNT }${BENCHTIME:+BENCHTIME=$BENCHTIME }${PAIRS_OVERLAY:+PAIRS_OVERLAY='$PAIRS_OVERLAY' }scripts/pairs.sh $*" "$work"
