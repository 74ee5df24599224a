// Command dtnflow-fleet runs a grid of independent cells on
// experiment.RunCells, the runner behind every cell-based experiment of
// cmd/experiments: it decomposes the (scenario × method × seed) — or,
// with -mults, (scenario × method × mult) — sweep into cells, executes
// them on a pool of -workers goroutines, and assembles the results
// index-aligned with the cells, so the output is byte-identical for any
// pool size. With -store, results are cached content-addressed by run
// fingerprint, so repeating a sweep is pure cache hits and adding cells
// re-runs only the new ones.
//
// Usage:
//
//	dtnflow-fleet                                  # Tiny sweep on GOMAXPROCS goroutines
//	dtnflow-fleet -workers 1                       # same cells, one at a time
//	dtnflow-fleet -store results/fleet-store       # warm the result cache
//	dtnflow-fleet -scenarios DART -methods DTN-FLOW,PROPHET -seeds 5
//	dtnflow-fleet -mults 1,2,4                     # scale-tier cells (streamed populations)
//	dtnflow-fleet -json > results.json             # index-aligned cell results
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/sim"
)

func main() {
	var (
		scenarios = flag.String("scenarios", "DART,DNET", "comma-separated scenarios")
		scaleName = flag.String("scale", "tiny", "trace scale: tiny, quick or full")
		methods   = flag.String("methods", "all", "comma-separated methods, or all")
		seeds     = flag.Int("seeds", 1, "seeds per (scenario, method) cell group")
		rate      = flag.Float64("rate", 0, "packets/day network-wide (0 = scenario default)")
		mults     = flag.String("mults", "", "scale-tier population multipliers (switches to streamed scale cells)")
		seed      = flag.Int64("seed", 1, "simulation seed for scale-tier cells")
		workers   = flag.Int("workers", 0, "cells executed at once (0 = GOMAXPROCS)")
		storeDir  = flag.String("store", "", "content-addressed result store directory (empty = no cache)")
		reportTo  = flag.String("report", "", "write the run report JSON to this file")
		asJSON    = flag.Bool("json", false, "emit the assembled cell results as JSON on stdout")
		quiet     = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	cells, err := buildCells(*scenarios, *scaleName, *methods, *seeds, *rate, *mults, *seed)
	if err != nil {
		fatal(err)
	}

	opt := experiment.Options{Workers: *workers}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}
	if *storeDir != "" {
		store, err := experiment.OpenStore(*storeDir)
		if err != nil {
			fatal(err)
		}
		opt.Store = store
	}

	results, rep, runErr := experiment.RunCells(cells, opt, progress)
	if *reportTo != "" {
		if err := writeReport(*reportTo, rep); err != nil {
			fatal(err)
		}
	}
	if runErr != nil {
		fatal(runErr)
	}

	fmt.Fprintf(os.Stderr, "dtnflow-fleet: %d cells in %.2fs (engine %s): %d cache hits, %d executed\n",
		rep.Cells, rep.WallSec, sim.EngineVersion, rep.CacheHits, rep.Executed)

	if *asJSON {
		emitJSON(os.Stdout, results)
		return
	}
	for _, g := range experiment.MergeAverages(results) {
		a := g.Averaged
		fmt.Printf("%-6s %-9s seeds=%d  success %.4f ±%.4f  delay %.0fs ±%.0f  fwd %.0f  cost %.0f\n",
			g.Scenario, g.Method, g.Seeds, a.Success, a.SuccessCI, a.Delay, a.DelayCI, a.Forwarding, a.TotalCost)
	}
}

func buildCells(scenarios, scaleName, methods string, seeds int, rate float64, mults string, seed int64) ([]experiment.Cell, error) {
	scs := splitList(scenarios)
	if len(scs) == 0 {
		return nil, fmt.Errorf("dtnflow-fleet: no scenarios")
	}
	ms := splitList(methods)
	if len(ms) == 1 && ms[0] == "all" {
		ms = experiment.MethodNames
	}
	for _, m := range ms {
		if !experiment.ValidMethod(m) {
			return nil, fmt.Errorf("dtnflow-fleet: unknown method %q", m)
		}
	}
	var cells []experiment.Cell
	if mults != "" {
		var mu []int
		for _, s := range splitList(mults) {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("dtnflow-fleet: bad multiplier %q", s)
			}
			mu = append(mu, v)
		}
		cells = experiment.ScaleCells(scs, ms, mu, seed)
	} else {
		scale, err := experiment.ParseScale(scaleName)
		if err != nil {
			return nil, err
		}
		cells = experiment.SweepCells(scs, scale, ms, seeds, rate)
	}
	return cells, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func writeReport(path string, rep experiment.CellReport) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func emitJSON(w io.Writer, results []*experiment.CellResult) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtnflow-fleet:", err)
	os.Exit(1)
}
