#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload serve-paging --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache stay inside the checkout, under .bench_build/,
# and the build never touches the network. Outside a full checkout (no root
# go.mod for the benchmark module to build against) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/benchmark" && go build -o "$out/autarky-benchmark" .)
exec "$out/autarky-benchmark" "$@"
