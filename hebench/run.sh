#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#   bash hebench/run.sh --workload helr-train --seed 1 --seconds 30 --trace 0
# Everything the build writes stays under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$build/hebench" .)
exec "$build/hebench" "$@"
