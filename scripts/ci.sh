#!/bin/sh
# ci.sh — run the same checks as .github/workflows/ci.yml locally.
#
#   build   go build + go vet
#   lint    gofmt -l (+ staticcheck when installed)
#   analyze skvet, the project's own invariant passes (cmd/skvet)
#   test    go test -race ./...
#   stress  the concurrency tests again, five times each under -race, so a
#           lock-order slip that one pass misses (ranked scoring reads every
#           shard's corpus counts under those shards' locks) fails here:
#           TestEngineConcurrentUse (root), TestConcurrentHTTPTraffic,
#           TestConcurrentMetricsScrape and TestQueryIIOConcurrentWithAdds
#           (cmd/skserve), TestShardedConcurrentStress,
#           TestConcurrentWarmQueries and TestShardedConcurrentAddsFlushOnRead
#           (internal/shard),
#           TestIndexConcurrentAddsAndQueries (internal/skql),
#           TestConcurrentReaders and TestConcurrentReadersAcrossTrees
#           (internal/core) — plus the object-file crash loop,
#           TestKillDuringTailRewriteRecovers (internal/shard) — about 35 s
#           on a 2-core box, 15 s of it the crash loop
#   allocs  the AllocsPerRun gates, without -race: they sit behind
#           //go:build !race (the detector breaks AllocsPerRun's accounting),
#           so the test step never compiles them — and coverage.sh only runs
#           ./internal/..., so the root package's durable-engine gate would
#           run nowhere
#   perf-build  build, vet and test benchmarks/perf, the wall-clock harness
#           (a module of its own that imports internal/...; root ./... never
#           sees it, so only this step catches a change that breaks it)
#   compat  the tests that open testdata/compat — engine directories written
#           by an older build (see the README there) — and then a check that
#           the fixture is byte for byte what git holds: every one of those
#           tests works on a copy, and one that opened the fixture in place
#           would rewrite it and from then on pass against its own output
#   cover   coverage with the CI floor (scripts/coverage.sh)
#   bench   benchmark-regression gate against benchmarks/baseline.json at
#           tolerance 0 — modeled disk time is seed-deterministic, so no
#           cell may cost more than the baseline says (the one definition
#           of the gated workload: ci.yml bench-smoke and the nightly
#           bench.yml both invoke this step)
#   fuzz    every Fuzz target for FUZZTIME (default 30s) each
#   ledger-check  the schema of every BENCH_<pr>.json at the repository
#           root, the alternating-pairs entries scripts/pairs.sh writes
#           (cmd/skledger check: every metric's values, quartiles and
#           better/worse pair counts agree)
#   all     everything above (the default)
#   micro   informational, not in all: the microbenchmarks of a ranked
#           candidate's load and term count (objstore.GetFiltered on a
#           two-block row, textutil.CountTermsBytesInto on generated/hotels
#           and generated/restaurants — rows dataset.Generate writes, with
#           ranked_hotels' 3 and topk_restaurants' 2 keywords — and on
#           lower-case, mixed-case and non-ASCII sentences), of the
#           membership test (textutil BenchmarkContainsTerms: the byte entry
#           on the same generated rows, the string entry on the sentences,
#           the range query's and the fences' filter), SKQL's per-candidate
#           residual filter (skql.BenchmarkResidualFilter, a 15-word row)
#           and a forced-IIO TOP 10 NEAR on 4 shards, also in candidates
#           and rows read per statement (skql.BenchmarkIIOTop: generated,
#           a ~100-candidate conjunction over 1,000 rows; frequent,
#           skql_sharded's conjunctive TOP, a top-2 % word AND a mid word on
#           Restaurants(0.02)), and the first fill of a fresh catalog's
#           sidecar index over 4 shards of 5,000 rows, one Get per row, also
#           in rows indexed per fill (skql.BenchmarkSidecarFill),
#           of an add's vocabulary fold with its repeated-term report
#           (textutil.BenchmarkAddDocWith, Hotels- and Restaurants-length
#           rows), of the tokenizer (textutil.BenchmarkTokenize,
#           Restaurants-length, Hotels-length and non-ASCII rows), of a
#           device's run read and
#           the charge a current cached node pays instead
#           (storage.Disk ReadRunInto and ChargeRun, in memory and on a
#           file, 1- and 3-block runs), of a cold node load's parse and signature-column build
#           and a warm node expansion (rtree.BenchmarkParsePacked, 64- and
#           189-byte payloads, and BenchmarkWarmExpand: distance, a
#           10-nearest conjunctive query over 64-byte signatures, and
#           ranked, three per-keyword masks per node over 189-byte ones,
#           both in ns/node), of a durable
#           engine's first load — Adds then Save, reported in objects/s
#           (BenchmarkDurableLoad, root package) — and of a 4-shard one's
#           (BenchmarkShardedLoad, internal/shard), of a restart: reopening
#           a saved Hotels(0.02) engine with 189-byte signatures, in rows/s
#           (BenchmarkOpenEngine, root package), of an Add and its Flush
#           into a packed engine, with the object-file blocks each reads
#           (BenchmarkAddAfterPack, root package: none, since the flush
#           indexes the add's words and sized signature levels read no
#           other row), of mixed_rw_wal's shape in process — an add, eight
#           searches, the delete of the add from ten ops before — on a
#           saved Restaurants(0.03) engine, also in blocks and index-device
#           writes per search (BenchmarkWritesBesideReads, root package:
#           no write, since reads search the queued adds in memory), of a
#           warm distance-first top-k and a warm general ranked top-k on a
#           reopened durable engine (BenchmarkDurableTopK and
#           BenchmarkDurableRanked, root package, the latter also in objects
#           and blocks loaded per query), of a warm boolean range query,
#           which no benchmarks/perf workload runs, on the same kind of
#           engine over Restaurants(0.05) with a mid-band and a frequent
#           word at ±400 (BenchmarkWithinArea, root package, also in
#           results, nodes and blocks per query), and of a warm sharded
#           distance-first top-k, ranked top-k and range query, the merge
#           cut by FirstK on 1 and 4 shards (BenchmarkTopK,
#           BenchmarkTopKRanked, BenchmarkWithinArea, internal/shard),
#           and of skserve's /ranked handler, request to appended body
#           through httptest's recorder, on a saved Hotels(0.02) engine
#           with BenchmarkDurableRanked's queries (BenchmarkRankedHandler,
#           cmd/skserve), printing ns/op, B/op and
#           allocs/op — too noisy on shared runners to gate, so ci.yml never
#           fails on it
#   size [base]  informational, not in all: scripts/loc.sh and
#           scripts/options.sh against base (default HEAD~1), the two
#           headline figures of a simplicity PR in one command
#
# Not checks: scripts/loc.sh [base-ref] prints the root module's non-test Go
# line count at base-ref and now, in total and per directory, and
# scripts/options.sh [base-ref] the field count of every Options/Config
# struct and skserve's flag count at both — the figures a simplicity PR
# reports (ci.sh size runs both). ci.yml's loc job prints both against a
# pull request's base commit.
#
# staticcheck is optional locally: if the binary is not on PATH the lint
# step prints a warning and moves on, while CI always installs and runs it.
set -eu

cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$1"; }

run_build() {
	step build
	go build ./...
	go vet ./...
}

run_lint() {
	step lint
	out="$(gofmt -l .)"
	if [ -n "$out" ]; then
		echo "gofmt needs to be run on:" >&2
		echo "$out" >&2
		exit 1
	fi
	if command -v staticcheck >/dev/null 2>&1; then
		staticcheck ./...
	else
		echo "staticcheck not installed; skipping (CI runs it)" >&2
	fi
}

run_analyze() {
	step analyze
	# All 8 passes, including hotalloc's `go build -gcflags=-m=2` gate.
	# hotalloc inherits GOFLAGS/GOCACHE, so a CI runner that has already
	# built the tree replays cached compiler diagnostics instead of
	# recompiling cold.
	go run ./cmd/skvet ./...
	# Informational: the standing-exception audit, so every skvet:ignore
	# and its justification shows up in the CI log.
	go run ./cmd/skvet -ignores ./...
}

run_test() {
	step test
	go test -race ./...
}

run_stress() {
	step stress
	go test -race -count=5 -run 'Concurrent|Stress|TestKillDuringTailRewriteRecovers' . ./cmd/skserve ./internal/shard ./internal/skql ./internal/core
}

run_allocs() {
	step allocs
	go test -run 'Alloc' ./...
}

run_perf_build() {
	step perf-build
	# -o /dev/null: the harness is one main package, and a bare
	# `go build ./...` would drop its binary into the benchmark's directory.
	(cd benchmarks/perf && go build -o /dev/null ./... && go vet ./... && go test ./...)
}

run_compat() {
	step compat
	go test -count=1 -run 'Parent' . ./internal/shard ./internal/faultmatrix ./cmd/skserve
	changed="$(git status --porcelain testdata/compat)"
	if [ -n "$changed" ]; then
		echo "a test changed the compat fixture (or it is not committed):" >&2
		echo "$changed" >&2
		exit 1
	fi
}

run_cover() {
	step cover
	sh scripts/coverage.sh 70
}

run_bench() {
	step bench
	go run ./cmd/skbench \
		-dataset restaurants -experiment vary-k,ingest,repl,fence-churn,skql \
		-scale 0.01 -queries 5 -seed 1 \
		-json -out benchmarks -baseline benchmarks/baseline.json -regress 0
}

run_micro() {
	step micro
	go test -run '^$' -bench 'CountTermsBytes|ContainsTerms|AddDocWith|Tokenize|GetFiltered' -benchmem ./internal/textutil ./internal/objstore
	go test -run '^$' -bench 'ResidualFilter|IIOTop|SidecarFill' -benchmem ./internal/skql
	go test -run '^$' -bench '^BenchmarkDisk(ReadRunInto|ChargeRun)$' -benchmem ./internal/storage
	go test -run '^$' -bench 'ParsePacked|WarmExpand' -benchmem ./internal/rtree
	go test -run '^$' -bench 'DurableLoad|OpenEngine|AddAfterPack|WritesBesideReads|DurableTopK|DurableRanked|^BenchmarkWithinArea$' -benchmem .
	go test -run '^$' -bench 'ShardedLoad|^BenchmarkTopK(Ranked)?$|^BenchmarkWithinArea$' -benchmem ./internal/shard
	go test -run '^$' -bench 'RankedHandler' -benchmem ./cmd/skserve
}

run_ledger_check() {
	step ledger-check
	set -- BENCH_*.json
	if [ ! -e "$1" ]; then
		echo "no BENCH_*.json at the root"
		return
	fi
	go run ./cmd/skledger check "$@"
	echo "$# ledger entries valid"
}

run_size() {
	step size
	sh scripts/loc.sh "$1"
	sh scripts/options.sh "$1"
}

run_fuzz() {
	step fuzz
	budget="${FUZZTIME:-30s}"
	# go test accepts a single -fuzz target per invocation, so discover
	# every Fuzz function and give each its own run.
	grep -rl '^func Fuzz' --include='*_test.go' . | while read -r file; do
		dir="$(dirname "$file")"
		sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\).*/\1/p' "$file" | while read -r target; do
			echo "fuzz $dir $target ($budget)"
			go test "$dir" -run '^$' -fuzz "^${target}\$" -fuzztime "$budget"
		done
	done
}

case "${1:-all}" in
build) run_build ;;
lint) run_lint ;;
analyze) run_analyze ;;
test) run_test ;;
stress) run_stress ;;
allocs) run_allocs ;;
perf-build) run_perf_build ;;
compat) run_compat ;;
cover) run_cover ;;
bench) run_bench ;;
fuzz) run_fuzz ;;
ledger-check) run_ledger_check ;;
micro) run_micro ;;
size) run_size "${2:-HEAD~1}" ;;
all)
	run_build
	run_lint
	run_analyze
	run_test
	run_stress
	run_allocs
	run_perf_build
	run_compat
	run_cover
	run_bench
	run_ledger_check
	run_fuzz
	;;
*)
	echo "usage: scripts/ci.sh [build|lint|analyze|test|stress|allocs|perf-build|compat|cover|bench|fuzz|ledger-check|micro|size [base]|all]" >&2
	exit 2
	;;
esac
