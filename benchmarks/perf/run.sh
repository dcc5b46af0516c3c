#!/usr/bin/env bash
# Builds skserve and the harness from the checkout this script lives in and
# runs the harness with the given arguments. Everything it writes (binaries,
# Go build and module caches, data directories, traces) goes under
# <checkout>/.bench_build. In a directory without the repository's sources
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
cd "$here"
go build -o "$build/skserve" spatialkeyword/cmd/skserve
go build -o "$build/perf" .
cd "$root"
exec "$build/perf" -root "$root" "$@"
