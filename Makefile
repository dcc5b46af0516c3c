# Convenience wrappers around scripts/ci.sh, which mirrors the GitHub
# Actions workflows. `make ci` runs everything CI runs.

.PHONY: build lint analyze vet test stress allocs perf-build compat cover bench fuzz micro loc options ci

build:
	sh scripts/ci.sh build

lint:
	sh scripts/ci.sh lint

# skvet, the project's own invariant passes; `vet` is its older name.
analyze vet:
	sh scripts/ci.sh analyze

test:
	sh scripts/ci.sh test

# The concurrency tests, five times each under -race.
stress:
	sh scripts/ci.sh stress

# The AllocsPerRun gates are //go:build !race, so `test` never runs them.
allocs:
	sh scripts/ci.sh allocs

# benchmarks/perf is a module of its own that root ./... never compiles.
perf-build:
	sh scripts/ci.sh perf-build

# The tests over testdata/compat, then a check that they left it untouched.
compat:
	sh scripts/ci.sh compat

cover:
	sh scripts/ci.sh cover

bench:
	sh scripts/ci.sh bench

fuzz:
	sh scripts/ci.sh fuzz

# Informational microbenchmarks of a ranked candidate's load and term count,
# and of a warm durable top-k.
micro:
	sh scripts/ci.sh micro

# Net non-test Go lines against BASE (default HEAD~1), total and per directory.
loc:
	sh scripts/loc.sh $(BASE)

# Options/Config field counts and skserve's flag count against BASE.
options:
	sh scripts/options.sh $(BASE)

ci:
	sh scripts/ci.sh all
