// Command tracegen generates the synthetic mobility traces and prints
// their Table I characteristics, optionally writing them to disk in the
// line format understood by the trace package. -stats measures bandwidth
// in the trace's time unit: 3 days for dart, half a day for dnet, 12
// hours for campus and small.
//
// Usage:
//
//	tracegen -kind dart -out dart.trace
//	tracegen -kind dnet -seed 7
//	tracegen -kind campus -stats
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiment"
	"repro/internal/predict"
	"repro/internal/trace"
)

func main() {
	var (
		kind  = flag.String("kind", "dart", "trace kind: dart, dnet, campus, small, or a trace file path")
		seed  = flag.Int64("seed", 0, "override generator seed (0 = default)")
		out   = flag.String("out", "", "write the trace to this file")
		stats = flag.Bool("stats", false, "print trace-analysis statistics (O1-O4, Fig. 6)")
	)
	flag.Parse()

	sc, err := experiment.LoadTrace(*kind, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr := sc.Trace
	if err := tr.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "generated trace invalid:", err)
		os.Exit(1)
	}
	fmt.Println(tr.Summarize())

	if *stats {
		bws := trace.Bandwidths(tr, sc.Unit)
		fmt.Printf("transit links: %d, top bandwidth %.2f/unit, median %.2f/unit\n",
			len(bws), bws[0].Bandwidth, bws[len(bws)/2].Bandwidth)
		sym := trace.MatchingSymmetry(tr, sc.Unit)
		if len(sym) > 0 {
			fmt.Printf("matching-link symmetry: median %.2f over %d pairs\n", sym[len(sym)/2], len(sym))
		}
		seqs := tr.LandmarkSequences()
		for k := 1; k <= 3; k++ {
			avg, _ := predict.EvaluateAll(k, seqs)
			fmt.Printf("order-%d prediction accuracy: %.3f\n", k, avg)
		}
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if _, err := tr.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("wrote", *out)
	}
}
