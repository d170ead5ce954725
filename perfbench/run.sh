#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload store-warm --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and everything the benchmark writes stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
