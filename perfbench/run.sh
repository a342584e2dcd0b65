#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the
# given arguments. Run it from the root of a steelnet checkout:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build in the
# checkout; nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
