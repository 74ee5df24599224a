#!/bin/sh
# Run the benchmark suite and render it into a JSON trajectory report.
#
# Usage:
#   scripts/bench.sh [out.json [baseline.json]]
#
# The benchmark set covers the engine hot path (BenchmarkSimulate*), the
# trace-analysis statistics (Transit/Bandwidths), the Tiny-scale
# experiment suites that dominate wall-clock (Fig11/Fig13/Table6/Fig16),
# and the scale tier (BenchmarkScale*: streaming generation into the
# engine at 1×/10×/32× DART, run once each — their figures are per-run
# throughput and peak-heap metrics, not per-op latencies).
# Raw output lands next to the report as <out>.raw.txt. With a baseline
# (a prior snapshot from cmd/benchreport), the report contains
# before/after numbers plus speedup ratios; without one it is a single
# labelled snapshot suitable for use as the next baseline.
set -eu
cd "$(dirname "$0")/.."

out="${1:-bench.json}"
baseline="${2:-}"
raw="${out%.json}.raw.txt"

pattern='^(BenchmarkSimulateDTNFLOW|BenchmarkSimulateBaselines|BenchmarkSimulateTracesOff|BenchmarkSweepFresh|BenchmarkSweepForked|BenchmarkTransitExtraction|BenchmarkBandwidths|BenchmarkFig11MemoryDART|BenchmarkFig13RateDART|BenchmarkTable6DeadEnd|BenchmarkFig16Campus)$'

scale_pattern='^(BenchmarkScaleDART1x|BenchmarkScaleDART1xMaterialized|BenchmarkScaleDART10x|BenchmarkScaleDART32x|BenchmarkOracle1x|BenchmarkOracle32x)$'

go test -run '^$' -bench "$pattern" -benchmem -benchtime 10x -count 1 . | tee "$raw"
go test -run '^$' -bench "$scale_pattern" -benchmem -benchtime 1x -count 1 -timeout 60m . | tee -a "$raw"

if [ -n "$baseline" ]; then
    go run ./cmd/benchreport -in "$raw" -label after -baseline "$baseline" -out "$out"
else
    go run ./cmd/benchreport -in "$raw" -label "$(git rev-parse --short HEAD 2>/dev/null || echo current)" -out "$out"
fi
