#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# keeping everything it writes (Go build cache, binary, datasets, traces)
# under .bench_build/ in the checkout it is started from.
#
#   bash bench/run.sh --workload serve-uncached --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh -list
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"

export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

# The module in bench/ replaces its `tsgraph` requirement with the parent
# directory, so this fails (as it must) where the repository is absent.
go build -C "$here" -o "$build/tsbench" .
exec "$build/tsbench" "$@"
