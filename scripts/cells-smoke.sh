#!/bin/sh
# Cell-runner smoke gate: the pool size and the store must be invisible
# in the results. Runs the Tiny Fig. 11 sweep and Table VIII at two seeds
# (one warmup per seed group, the second seed forked from it) on pools of
# 1, 2 and GOMAXPROCS goroutines (-workers 1, 2, 0) and byte-compares the
# -out files. Two store legs follow: the Tiny Fig. 11 sweep runs twice
# against one store, and the second run must execute no cell and write a
# byte-identical result file; Table VIII then Table IX run against
# another store, and Table IX, which reads Table VIII's runs, must
# execute no cell.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/experiments" ./cmd/experiments

for w in 1 2 0; do
    echo "cells-smoke: fig11,table8 -seeds 2 with -workers $w"
    "$tmp/experiments" -run fig11,table8 -scale tiny -seeds 2 -workers "$w" -out "$tmp/w$w" > /dev/null
done
for w in 2 0; do
    for f in fig11 table8; do
        if ! cmp -s "$tmp/w1/$f.txt" "$tmp/w$w/$f.txt"; then
            echo "cells-smoke: FAIL: $f with -workers $w differs from -workers 1" >&2
            diff "$tmp/w1/$f.txt" "$tmp/w$w/$f.txt" >&2 || true
            exit 1
        fi
    done
done

echo "cells-smoke: fig11 cold and warm runs (same store)"
"$tmp/experiments" -run fig11 -scale tiny -store "$tmp/s1" -out "$tmp/a" > "$tmp/a.log"
"$tmp/experiments" -run fig11 -scale tiny -store "$tmp/s1" -out "$tmp/b" > "$tmp/b.log"
if ! cmp -s "$tmp/a/fig11.txt" "$tmp/b/fig11.txt"; then
    echo "cells-smoke: FAIL: warm fig11 output differs from the cold run" >&2
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
        echo "cells-smoke: FAIL: warm $2 run not fully cached (served=$served executed=$executed)" >&2
        cat "$1" >&2
        exit 1
    fi
}
store_check "$tmp/b.log" fig11
fig11=$served

echo "cells-smoke: table8 then table9 (same store)"
"$tmp/experiments" -run table8 -scale tiny -store "$tmp/s2" > "$tmp/t8.log"
"$tmp/experiments" -run table9 -scale tiny -store "$tmp/s2" > "$tmp/t9.log"
store_check "$tmp/t9.log" table9

echo "cells-smoke: OK (fig11 and table8 at 2 seeds byte-identical across 1, 2 and GOMAXPROCS goroutines; $fig11 fig11 cells served from the store; $served table9 cells served from table8's store)"
