#!/usr/bin/env bash
# Builds the layered benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash layerbench/run.sh --workload sim-serial --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, scratch stores and span files.
# The build is offline: the benchmark module depends only on the repository
# itself and the toolchain's standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C layerbench build -o "$build/layerbench" . >&2
exec "$build/layerbench" "$@"
