#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload scale-steady --seed 1 --seconds 15 --trace 0
#
# All build state (Go build cache, module cache, tool config) lives under
# .bench_build in the repository root, so the run reads and writes only
# inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOWORK=off
go -C "$root/bench" build -o "$out/dtnbench" .
exec "$out/dtnbench" "$@"
