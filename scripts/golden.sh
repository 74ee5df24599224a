#!/bin/sh
# Regenerate the golden-run regression corpus and verify it reproduces.
#
# Usage:
#   scripts/golden.sh
#
# The corpus (internal/experiment/testdata/golden/*.json) pins fixed-seed
# metrics.Summary fingerprints for every routing method on both Tiny
# scenarios — steady-state and storm-disrupted — plus DTN-FLOW with load
# balancing (BALANCE.json, the Table VIII configuration) and with loop
# correction under injected loops (LOOPFIX.json, Table VII's W-2 and W-3).
# TestGoldenRuns, TestDisruptedGoldenRuns, TestBalanceGoldenRuns and
# TestLoopFixGoldenRuns compare against it exactly, through the
# materialized scenario traces and again through chunked streams at three
# epoch lengths; run this script only when a numeric change is intended,
# and review the corpus diff like code.
set -eu
cd "$(dirname "$0")/.."

go test ./internal/experiment/ -run 'TestGoldenRuns|TestDisruptedGoldenRuns|TestBalanceGoldenRuns|TestLoopFixGoldenRuns' -update-golden
go test ./internal/experiment/ -run 'TestGoldenRuns|TestDisruptedGoldenRuns|TestBalanceGoldenRuns|TestLoopFixGoldenRuns'
git --no-pager diff --stat -- internal/experiment/testdata/golden || true
