#!/bin/sh
# Pre-merge hygiene gate: formatting, vet, the race detector over the
# packages that share state across goroutines (the parallel experiment
# sweep and the pool-backed cell runner with its store, the engine it
# drives with its epoch prefetcher and forks, the routing table's pure
# reads after Snapshot and after a full resolve, and the oracle's
# bucket-parallel graph build and relaxed pass, whose workers write the
# per-chunk path and chain buffers the commit replays; its
# TestBuildOrderMatchesSort and TestCommitReplayBranches run raced
# there), the validation battery — invariant
# checker, checker-neutrality, fork equivalence, the O1-O4 paper-fidelity
# checks at tiny scale, and the disrupted-scenario section (outage /
# churn / storm presets, every method checker-clean and materialized ==
# streamed) — and the cells smoke
# (Tiny Fig. 11 and Table VIII byte-compared across pools of 1, 2 and
# GOMAXPROCS goroutines plus the 100%-cache-hit re-runs of experiments).
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go test -race ./internal/experiment ./internal/sim ./internal/routing ./internal/oracle
go run ./cmd/dtnflow-validate
./scripts/cells-smoke.sh

echo "check.sh: all clean"
