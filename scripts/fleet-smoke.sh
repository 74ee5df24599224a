#!/bin/sh
# Fleet smoke gate: the pool size must be invisible in the results. Runs
# the default Tiny sweep on pools of 1, 2 and GOMAXPROCS goroutines
# (-workers 1, 2, 0) and byte-compares the -json output, then repeats the
# 2-goroutine run against the warmed store and requires 100% cache hits
# with, again, byte-identical output. A -seeds 2 leg, whose seeds fork
# from one warmup per (scenario, method) group, does the same on pools of
# 1 and GOMAXPROCS goroutines and a warm-store rerun. Two experiments
# legs follow: the Tiny Fig. 11 sweep runs twice against one store, and
# the second run must execute no cell and write a byte-identical result
# file; Table VIII then Table IX run against another store, and Table IX,
# which reads Table VIII's runs, must execute no cell.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/dtnflow-fleet" ./cmd/dtnflow-fleet
go build -o "$tmp/experiments" ./cmd/experiments

echo "fleet-smoke: cold run (2 goroutines, empty store)"
"$tmp/dtnflow-fleet" -q -json -workers 2 -store "$tmp/store" \
    -report "$tmp/cold.json" > "$tmp/w2.json"

for w in 1 0; do
    echo "fleet-smoke: run with -workers $w"
    "$tmp/dtnflow-fleet" -q -json -workers "$w" > "$tmp/w$w.json"
    if ! cmp -s "$tmp/w2.json" "$tmp/w$w.json"; then
        echo "fleet-smoke: FAIL: -workers $w output differs from -workers 2" >&2
        diff "$tmp/w2.json" "$tmp/w$w.json" >&2 || true
        exit 1
    fi
done

# warm_check REPORT: the run behind REPORT must be all cache hits.
warm_check() {
    # The report JSON is indented one field per line; pull the counters out.
    cells=$(sed -n 's/.*"cells": \([0-9]*\).*/\1/p' "$1")
    hits=$(sed -n 's/.*"cache_hits": \([0-9]*\).*/\1/p' "$1")
    executed=$(sed -n 's/.*"executed": \([0-9]*\).*/\1/p' "$1")
    if [ -z "$cells" ] || [ "$cells" -eq 0 ] || [ "$hits" != "$cells" ] || [ "$executed" != "0" ]; then
        echo "fleet-smoke: FAIL: warm run not fully cached (cells=$cells hits=$hits executed=$executed)" >&2
        cat "$1" >&2
        exit 1
    fi
}

echo "fleet-smoke: warm run (same store)"
"$tmp/dtnflow-fleet" -q -json -workers 2 -store "$tmp/store" \
    -report "$tmp/warm.json" > "$tmp/warm-out.json"

if ! cmp -s "$tmp/w2.json" "$tmp/warm-out.json"; then
    echo "fleet-smoke: FAIL: warm run output differs from cold run" >&2
    exit 1
fi
warm_check "$tmp/warm.json"
one=$cells

echo "fleet-smoke: -seeds 2 cold run (1 goroutine, empty store)"
"$tmp/dtnflow-fleet" -q -json -seeds 2 -workers 1 -store "$tmp/store2" > "$tmp/s2-w1.json"
echo "fleet-smoke: -seeds 2 run with -workers 0"
"$tmp/dtnflow-fleet" -q -json -seeds 2 -workers 0 > "$tmp/s2-w0.json"
echo "fleet-smoke: -seeds 2 warm run (same store)"
"$tmp/dtnflow-fleet" -q -json -seeds 2 -workers 0 -store "$tmp/store2" \
    -report "$tmp/s2-warm.json" > "$tmp/s2-warm-out.json"
for f in s2-w0 s2-warm-out; do
    if ! cmp -s "$tmp/s2-w1.json" "$tmp/$f.json"; then
        echo "fleet-smoke: FAIL: -seeds 2 output $f differs from the 1-goroutine cold run" >&2
        diff "$tmp/s2-w1.json" "$tmp/$f.json" >&2 || true
        exit 1
    fi
done
warm_check "$tmp/s2-warm.json"

echo "fleet-smoke: experiments fig11 cold and warm runs (same store)"
"$tmp/experiments" -run fig11 -scale tiny -store "$tmp/s3" -out "$tmp/a" > "$tmp/a.log"
"$tmp/experiments" -run fig11 -scale tiny -store "$tmp/s3" -out "$tmp/b" > "$tmp/b.log"
if ! cmp -s "$tmp/a/fig11.txt" "$tmp/b/fig11.txt"; then
    echo "fleet-smoke: FAIL: warm experiments fig11 output differs from the cold run" >&2
    diff "$tmp/a/fig11.txt" "$tmp/b/fig11.txt" >&2 || true
    exit 1
fi

# store_check LOG WHAT: the experiments run behind LOG must have been
# served from its store and executed no cell. Its last stdout line reads
# "store DIR: N cells served, M executed".
store_check() {
    last=$(tail -n 1 "$1")
    served=$(echo "$last" | sed -n 's/^store .*: \([0-9]*\) cells served, [0-9]* executed$/\1/p')
    executed=$(echo "$last" | sed -n 's/^store .*: [0-9]* cells served, \([0-9]*\) executed$/\1/p')
    if [ -z "$served" ] || [ "$served" -eq 0 ] || [ "$executed" != "0" ]; then
        echo "fleet-smoke: FAIL: warm experiments $2 run not fully cached (served=$served executed=$executed)" >&2
        cat "$1" >&2
        exit 1
    fi
}
store_check "$tmp/b.log" fig11
fig11=$served

echo "fleet-smoke: experiments table8 then table9 (same store)"
"$tmp/experiments" -run table8 -scale tiny -store "$tmp/s4" > "$tmp/t8.log"
"$tmp/experiments" -run table9 -scale tiny -store "$tmp/s4" > "$tmp/t9.log"
store_check "$tmp/t9.log" table9

echo "fleet-smoke: OK ($one cells byte-identical across 1, 2 and GOMAXPROCS goroutines and the cached run; $cells -seeds 2 cells across 1 and GOMAXPROCS goroutines and the cached run; $fig11 experiments fig11 cells served from the store; $served table9 cells served from table8's store)"
