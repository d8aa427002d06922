#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source inside the
# checkout and run it from the checkout's root with the driver's arguments.
# Everything the build and the run write stays under .bench_build/ and
# bench/out/, both git-ignored; nothing outside the checkout is touched and
# nothing is downloaded (the module has no dependency but the repository).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

# The build cache makes this a fraction of a second after the first run.
go build -C "$here" -o "$build/demaq-bench" .

cd "$root"
exec "$build/demaq-bench" "$@"
