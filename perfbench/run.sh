#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it.
# Run from the checkout root:
#
#   bash perfbench/run.sh --workload suite-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache,
# campaign stores, run records) goes under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
