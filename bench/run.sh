#!/usr/bin/env bash
# Builds the benchmark (a module of its own, see go.mod here) and runs it with
# the given arguments from the repository root. Everything the build leaves
# behind stays inside the checkout, under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
