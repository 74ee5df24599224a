// Command benchreport converts `go test -bench` output into a JSON
// benchmark-trajectory report, so successive performance PRs can commit
// comparable numbers (BENCH_<n>.json) instead of pasting raw bench logs.
//
// Typical use (see scripts/bench.sh):
//
//	go test -run '^$' -bench ... -benchmem ./... > raw.txt
//	go run ./cmd/benchreport -in raw.txt -label after \
//	    -baseline before.json -out BENCH_1.json
//
// Without -baseline the output is a single snapshot {label, benchmarks}.
// With -baseline (a prior snapshot produced by this tool) the output is
// {before, after, speedup}, where speedup holds before/after ratios for
// ns/op and allocs/op per benchmark present in both snapshots.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Bench is one parsed benchmark result. Metrics maps unit -> value,
// e.g. "ns/op", "B/op", "allocs/op" and custom units such as "success".
type Bench struct {
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Snapshot is one labelled benchmark run.
type Snapshot struct {
	Label      string           `json:"label"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

// Speedup compares one benchmark across two snapshots.
type Speedup struct {
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// Comparison is the before/after report committed as BENCH_<n>.json.
type Comparison struct {
	Before  Snapshot           `json:"before"`
	After   Snapshot           `json:"after"`
	Speedup map[string]Speedup `json:"speedup"`
}

// benchLine matches one result line: name, iteration count, then the
// value/unit pairs handled below. The -<procs> suffix is stripped so
// reports are comparable across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parse reads `go test -bench` output into a snapshot.
func parse(r io.Reader, label string) (Snapshot, error) {
	snap := Snapshot{Label: label, Benchmarks: map[string]Bench{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		iters, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		fields := strings.Fields(m[3])
		if len(fields)%2 != 0 {
			return snap, fmt.Errorf("odd value/unit fields in %q", sc.Text())
		}
		b := Bench{Iterations: iters, Metrics: map[string]float64{}}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return snap, fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			b.Metrics[fields[i+1]] = v
		}
		snap.Benchmarks[name] = b
	}
	return snap, sc.Err()
}

// compare builds the before/after report with speedup ratios.
func compare(before, after Snapshot) Comparison {
	cmp := Comparison{Before: before, After: after, Speedup: map[string]Speedup{}}
	for name, a := range after.Benchmarks {
		b, ok := before.Benchmarks[name]
		if !ok {
			continue
		}
		var s Speedup
		if an := a.Metrics["ns/op"]; an > 0 {
			if bn := b.Metrics["ns/op"]; bn > 0 {
				s.NsPerOp = round3(bn / an)
			}
		}
		if aa := a.Metrics["allocs/op"]; aa > 0 {
			if ba := b.Metrics["allocs/op"]; ba > 0 {
				s.AllocsPerOp = round3(ba / aa)
			}
		}
		if s != (Speedup{}) {
			cmp.Speedup[name] = s
		}
	}
	return cmp
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

func main() {
	in := flag.String("in", "", "raw `go test -bench` output (default stdin)")
	out := flag.String("out", "", "output JSON path (default stdout)")
	label := flag.String("label", "current", "label for this snapshot")
	baseline := flag.String("baseline", "", "prior snapshot JSON to compare against")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	snap, err := parse(src, *label)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}

	var doc any = snap
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var before Snapshot
		if err := json.Unmarshal(data, &before); err != nil {
			fatal(fmt.Errorf("baseline %s: %w", *baseline, err))
		}
		doc = compare(before, snap)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(snap.Benchmarks))
	for n := range snap.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("wrote %s (%d benchmarks: %s ...)\n", *out, len(names), strings.Join(names[:min(3, len(names))], ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
