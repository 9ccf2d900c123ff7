#!/usr/bin/env bash
# Builds the RDX benchmark from the sources of the checkout it runs in
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload stream-steady --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay in
# .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
