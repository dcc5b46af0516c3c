# Convenience wrappers around scripts/ci.sh, which mirrors the GitHub
# Actions workflows. `make ci` runs everything CI runs.

.PHONY: build lint vet test cover bench fuzz loc ci

build:
	sh scripts/ci.sh build

lint:
	sh scripts/ci.sh lint

vet:
	sh scripts/ci.sh analyze

test:
	sh scripts/ci.sh test

cover:
	sh scripts/ci.sh cover

bench:
	sh scripts/ci.sh bench

fuzz:
	sh scripts/ci.sh fuzz

# Net non-test Go lines against BASE (default HEAD~1).
loc:
	sh scripts/loc.sh $(BASE)

ci:
	sh scripts/ci.sh all
