// Command dtnbench is the repository's benchmark. Each workload puts a
// different layer on the critical path; see README.md for the workloads,
// the metrics and the layer each metric belongs to.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload scale-steady --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 the run
// alternates untraced and traced passes and reports the per-layer
// metrics of the traced ones. The line before it records provenance.
// --pin prints the fingerprint of one pass instead, for fingerprints.json.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"alloc_mib", "MiB"},
	{"allocs", "count"},
}

var perLayer = []metricDef{
	{"synth.next_s", "s"},
	{"synth.next_calls", "count"},
	{"synth.visits", "count"},
	{"sim.new_s", "s"},
	{"sim.epochs", "count"},
	{"sim.events", "count"},
	{"sim.apply_self_s", "s"},
	{"router.contact_s", "s"},
	{"router.contact_calls", "count"},
	{"router.backlog_scanned", "count"},
	{"router.transfers", "count"},
	{"router.moved_per_scanned", "ratio"},
	{"router.depart_s", "s"},
	{"router.depart_calls", "count"},
	{"router.unit_s", "s"},
	{"router.unit_calls", "count"},
	{"router.generate_s", "s"},
	{"router.generate_calls", "count"},
	{"router.init_s", "s"},
	{"routing.recomputes", "count"},
	{"routing.rows_changed", "count"},
	{"predict.hits", "count"},
	{"predict.misses", "count"},
	{"predict.hit_ratio", "ratio"},
	{"packets.generated", "count"},
	{"packets.delivered", "count"},
	{"packets.dropped", "count"},
	{"trace.materialize_s", "s"},
	{"oracle.build_s", "s"},
	{"oracle.edges", "count"},
	{"oracle.relaxed_s", "s"},
	{"oracle.commit_s", "s"},
	{"oracle.packets", "count"},
	{"oracle.deliverable", "count"},
	{"oracle.relaxed_us_per_packet", "us"},
	{"experiment.sweep_memory_s", "s"},
	{"experiment.sweep_rate_s", "s"},
	{"method.DTN-FLOW.run_s", "s"},
	{"method.PER.run_s", "s"},
	{"method.SimBet.run_s", "s"},
	{"method.PROPHET.run_s", "s"},
	{"method.GeoComm.run_s", "s"},
	{"method.PGR.run_s", "s"},
	{"bench.tracing_overhead_s", "s"},
}

// heldOutSeed has a pinned fingerprint but is never used while tuning a
// change, so a claim can be checked on a seed it was not tuned on.
const heldOutSeed = 97

// pins maps workload → seed → the fingerprint every pass must reproduce.
type pins map[string]map[string]string

//go:embed fingerprints.json
var pinnedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return nil, fmt.Errorf("fingerprints.json: %w", err)
	}
	return p, nil
}

func (p pins) lookup(workload string, seed int64) string {
	return p[workload][strconv.FormatInt(seed, 10)]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnbench:", err)
		os.Exit(1)
	}
	os.Exit(run(os.Args[1:], p, os.Stdout, os.Stderr))
}

// run parses the flags, runs the workload and prints the result; it
// returns the process exit code.
func run(args []string, p pins, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dtnbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 15, "time budget for the timed passes")
	traced := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	pin := fl.Bool("pin", false, "print one pass's fingerprint and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	def, err := lookupWorkload(*name)
	if err != nil || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "dtnbench: need --workload (one of %s) and --trace 0|1\n", workloadNames())
		return 2
	}
	if *pin {
		_, fp, err := onePass(def.full, *seed, nil)
		if err != nil {
			fmt.Fprintln(stderr, "dtnbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, fp)
		return 0
	}

	o := runOpts{seed: *seed, seconds: *seconds, traced: *traced == 1, pin: p.lookup(def.name, *seed)}
	out := measure(def.full, def.small, o)
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "dtnbench: failed:", f)
	}
	prov := provenance(def.name, o, out)
	blob, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "%s\n", blob)
	blob, err = json.Marshal(report(out, o.traced))
	if err != nil {
		fmt.Fprintln(stderr, "dtnbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}

// report shapes an outcome into the result line.
func report(out outcome, traced bool) result {
	r := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	defs, vals := endToEnd, out.endToEnd
	if traced {
		defs, vals = perLayer, out.perLayer
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return r
}

func workloadNames() string {
	var n []string
	for _, d := range workloads {
		n = append(n, d.name)
	}
	return strings.Join(n, ", ")
}

// provenance records what produced a result: host, toolchain, code and
// inputs.
func provenance(name string, o runOpts, out outcome) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return map[string]any{"provenance": map[string]any{
		"workload":       name,
		"seed":           o.seed,
		"seconds":        o.seconds,
		"trace":          o.traced,
		"pinned":         o.pin != "",
		"pass_walls_s":   out.walls,
		"speed_factors":  out.factors,
		"traced_walls_s": out.tracedW,
		"cpus":           runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"commit":         commit,
		"source_sha256":  sourceDigest("."),
	}}
}

// sourceDigest hashes the Go sources and module files under root, which
// identifies the code when the checkout carries no version control data.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "fingerprints.json") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
