#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload hit-read --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. The Go build cache, the drad binary and
# every state dir stay under .bench_build/ there; nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
cd "$root/bench"
go build -o "$build/drabench" .
exec "$build/drabench" -work "$build" "$@"
