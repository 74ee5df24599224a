// Command dtnflow-validate runs the simulation validation battery: the
// O1–O4 paper-fidelity checks on both scenario traces, the invariant
// checker (with telemetry cross-checks) under every routing method,
// checker-neutrality, warm-state fork equivalence, and optionally a
// property-based fuzz campaign over random small scenarios.
//
// It exits 0 when every check passes and 1 otherwise, so it can gate CI.
//
// Usage:
//
//	dtnflow-validate                      # full battery at tiny scale
//	dtnflow-validate -scale quick         # larger traces, slower
//	dtnflow-validate -methods DTN-FLOW    # one method only
//	dtnflow-validate -fuzz 50             # add a 50-spec fuzz campaign
//	dtnflow-validate -seeds 4 -v          # more fork seeds, verbose progress
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/validate"
)

func main() {
	var (
		scale   = flag.String("scale", "tiny", "scenario scale: tiny, quick or full")
		methods = flag.String("methods", "", "comma-separated methods (default: all)")
		seeds   = flag.Int("seeds", 2, "seeds for the fork-equivalence check")
		rate    = flag.Float64("rate", 0, "packets/day network-wide (0 = scenario default)")
		fuzz    = flag.Int("fuzz", 0, "random specs for the property fuzzer (0 = skip)")
		verbose = flag.Bool("v", false, "log progress while running")
	)
	flag.Parse()

	sc, err := experiment.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := validate.BatteryOptions{
		Scale:     sc,
		Seeds:     *seeds,
		Rate:      *rate,
		FuzzSpecs: *fuzz,
	}
	if *methods != "" {
		for _, m := range strings.Split(*methods, ",") {
			opt.Methods = append(opt.Methods, strings.TrimSpace(m))
		}
	}
	if *verbose {
		opt.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep := validate.RunBattery(opt)
	rep.Print(os.Stdout)
	if rep.Failed() {
		os.Exit(1)
	}
}
