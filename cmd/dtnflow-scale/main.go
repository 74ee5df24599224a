// Command dtnflow-scale runs one scaled scenario through the scale tier —
// the streaming generator feeding the engine epoch by epoch, without ever
// materializing the trace — and reports the throughput and memory figures
// the tier exists to measure.
//
// The population multiplier scales nodes (and DART communities / DNET
// routes) while keeping the landmark count fixed: the routing tables are
// O(L²), so the scaling question the tier answers is "more devices over
// the same infrastructure". Results are bit-identical across fill-worker
// counts and epoch lengths, and equal to a run over the materialized
// stream (pinned by experiment's TestScaleStreamMatchesMaterialized* tests).
//
// Usage:
//
//	dtnflow-scale                             # 1× DART, DTN-FLOW
//	dtnflow-scale -mult 32                    # 10,240-node DART
//	dtnflow-scale -scenario DNET -mult 10
//	dtnflow-scale -epoch-days 0.5             # engine merge epoch
//	dtnflow-scale -disrupt storm              # disrupted population
//	dtnflow-scale -json                       # machine-readable result
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/disrupt"
	"repro/internal/experiment"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	var (
		scenario   = flag.String("scenario", "DART", "scaled scenario: DART or DNET")
		mult       = flag.Int("mult", 1, "population multiplier (landmarks stay fixed)")
		method     = flag.String("method", "DTN-FLOW", "routing method")
		epochDays  = flag.Float64("epoch-days", 1, "engine merge epoch in days")
		rate       = flag.Float64("rate", 0, "packets/day network-wide (0 = scenario default)")
		disruptArg = flag.String("disrupt", "", "disruption preset (outage, link-sever, link-degrade, churn, drift, flash-crowd, storm) or a JSON spec file")
		seed       = flag.Int64("seed", 1, "simulation seed")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		execTrace  = flag.String("trace", "", "write an execution trace to this file")
		blockProf  = flag.String("blockprofile", "", "write a goroutine blocking profile to this file")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex contention profile to this file")
	)
	flag.Parse()

	stopProf, err := prof.Config{
		CPU: *cpuProf, Mem: *memProf, Trace: *execTrace,
		Block: *blockProf, Mutex: *mutexProf,
	}.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnflow-scale:", err)
		os.Exit(1)
	}
	defer stopProf()

	spec := experiment.ScaleSpec{
		Scenario: *scenario,
		Mult:     *mult,
		Rate:     *rate,
		Seed:     *seed,
	}
	if *disruptArg != "" {
		nodes, landmarks, err := spec.Dims()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-scale:", err)
			os.Exit(1)
		}
		start, end, err := spec.Span()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-scale:", err)
			os.Exit(1)
		}
		sp, err := disrupt.Parse(*disruptArg, nodes, landmarks, start, end)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-scale:", err)
			os.Exit(1)
		}
		spec.Disrupt = &sp
	}

	res, err := spec.RunSharded(*method, sim.ShardConfig{Epoch: trace.Time(*epochDays * float64(trace.Day))})
	if err != nil {
		stopProf()
		fmt.Fprintln(os.Stderr, "dtnflow-scale:", err)
		os.Exit(1)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-scale:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%s %d×: %d nodes, %d landmarks, %d visits\n",
		res.Scenario, res.Mult, res.Nodes, res.Landmarks, res.Visits)
	fmt.Printf("  method      %s\n", res.Method)
	fmt.Printf("  wall        %.2fs\n", res.WallSec)
	fmt.Printf("  throughput  %.0f visits/s  (%d events, %.0f events/s)\n", res.VisitsPerSec, res.Events, res.EventsPerSec)
	fmt.Printf("  peak heap   %.1f MiB\n", float64(res.PeakHeap)/(1<<20))
	fmt.Printf("  summary     success %.4f, delivered %d/%d, avg delay %.0fs, fwd %d\n",
		res.Summary.SuccessRate, res.Summary.Delivered, res.Summary.Generated,
		res.Summary.AvgDelay, res.Summary.Forwarding)
}
