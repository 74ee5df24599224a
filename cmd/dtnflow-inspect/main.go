// Command dtnflow-inspect replays a telemetry recording (JSONL written
// by dtnflow-sim -telemetry) and prints the run-inspector views: the
// per-landmark flow matrix, hop-count and delay histograms, the most
// congested transit links, per-landmark load, and a single packet's full
// lifecycle by ID.
//
// Usage:
//
//	dtnflow-sim -trace dart -method DTN-FLOW -telemetry run.jsonl
//	dtnflow-inspect -in run.jsonl                 # summary + top links + histograms
//	dtnflow-inspect -in run.jsonl -flows          # full landmark flow matrix
//	dtnflow-inspect -in run.jsonl -loads          # per-landmark load table
//	dtnflow-inspect -in run.jsonl -packet 1234    # one packet's path and fate
//	dtnflow-inspect -in run.jsonl -top 20         # widen the congested-link list
//	dtnflow-inspect -in run.jsonl -resilience     # per-disruption impact report
//	dtnflow-inspect -in run.jsonl -regret         # oracle join: per-packet and per-decision regret
//
// -resilience reads the disruption timeline a disrupted run records in
// its meta header (dtnflow-sim -disrupt ... -telemetry ...) and prints,
// for every disruption event, the routing-table re-convergence (table
// recomputes, settle time, total drift) and the before/after packet
// outcomes in a window around the event (-window sets its length).
//
// -regret rebuilds the run's trace from the meta header (re-applying its
// recorded -disrupt argument; a trace whose node or landmark count differs
// from the recording's is refused), solves the offline contact-graph oracle
// for every recorded packet, and reports how far each delivery lagged
// the provable optimum plus a per-landmark decision-quality table; see
// DESIGN.md's "Oracle architecture" section.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		in     = flag.String("in", "", "telemetry JSONL recording (required)")
		flows  = flag.Bool("flows", false, "print the full landmark flow matrix")
		loads  = flag.Bool("loads", false, "print the per-landmark load table")
		packet = flag.Int("packet", -1, "print one packet's full lifecycle by ID")
		topK   = flag.Int("top", 10, "number of congested transit links to list")
		resil  = flag.Bool("resilience", false, "print the per-disruption resilience report")
		window = flag.Duration("window", 0, "resilience comparison window (0 = the run's time unit)")
		regret = flag.Bool("regret", false, "join the recording against the contact-graph oracle")
		trArg  = flag.String("trace", "", "trace override for -regret (defaults to the recording's scenario)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dtnflow-inspect: -in recording.jsonl is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log, err := telemetry.ReadJSONL(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	switch {
	case *packet >= 0:
		printPacket(log, *packet)
	case *flows:
		printFlows(log)
	case *loads:
		printLoads(log)
	case *resil:
		printResilience(log, trace.Time((*window).Seconds()))
	case *regret:
		printRegret(log, *trArg, *topK)
	default:
		printSummary(log, *topK)
	}
}

// printResilience renders telemetry.Log.Resilience as one block per
// disruption event: what the routing tables did in the window after it,
// and how the packet outcomes moved against the window before it.
func printResilience(log *telemetry.Log, window trace.Time) {
	impacts := log.Resilience(window)
	if len(impacts) == 0 {
		fmt.Println("no disruption timeline in this recording (run dtnflow-sim with -disrupt and -telemetry)")
		return
	}
	if window <= 0 {
		if window = log.Meta.Unit; window <= 0 {
			window = trace.Day
		}
	}
	fmt.Printf("resilience report: %d disruption events, window %s\n",
		len(impacts), metrics.FormatDuration(float64(window)))
	for _, im := range impacts {
		id := fmt.Sprintf("%s(%d", im.Kind, im.A)
		if im.B != 0 {
			id += fmt.Sprintf(",%d", im.B)
		}
		id += ")"
		fmt.Printf("\nt=%-10d %s\n", int64(im.T), id)
		if im.Recomputes == 0 {
			fmt.Println("  tables:    no recompute inside the window")
		} else {
			fmt.Printf("  tables:    %d recomputes, settled after %s, total drift %.3f\n",
				im.Recomputes, metrics.FormatDuration(float64(im.Settle)), im.TableDrift)
		}
		fmt.Printf("  before:    %4d generated, %4d delivered, %4d dropped, %5d forwarded, mean delay %s\n",
			im.Before.Generated, im.Before.Delivered, im.Before.Dropped, im.Before.Forwarded,
			metrics.FormatDuration(im.Before.MeanDelay))
		fmt.Printf("  during:    %4d generated, %4d delivered, %4d dropped, %5d forwarded, mean delay %s\n",
			im.During.Generated, im.During.Delivered, im.During.Dropped, im.During.Forwarded,
			metrics.FormatDuration(im.During.MeanDelay))
	}
}

func printSummary(log *telemetry.Log, topK int) {
	m := log.Meta
	if m.Scenario != "" {
		fmt.Printf("run:        %s / %s (seed %d, %d nodes, %d landmarks)\n",
			m.Scenario, m.Method, m.Seed, m.Nodes, m.Landmarks)
	}
	fmt.Printf("events:     %d\n", len(log.Events))

	pkts := log.Packets()
	var delivered, dropped, inflight int
	drops := map[string]int{}
	for _, pt := range pkts {
		switch pt.Status {
		case telemetry.StatusDelivered:
			delivered++
		case telemetry.StatusDropped:
			dropped++
			drops[pt.Reason.String()]++
		default:
			inflight++
		}
	}
	fmt.Printf("packets:    %d (%d delivered, %d dropped, %d in flight)\n",
		len(pkts), delivered, dropped, inflight)
	if dropped > 0 {
		reasons := make([]string, 0, len(drops))
		for r := range drops {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		parts := make([]string, 0, len(reasons))
		for _, r := range reasons {
			parts = append(parts, fmt.Sprintf("%s=%d", r, drops[r]))
		}
		fmt.Printf("drops:      %s\n", strings.Join(parts, " "))
	}

	fmt.Printf("\ntop %d congested transit links (packets traversing i -> j):\n", topK)
	for _, l := range log.TopLinks(topK) {
		fmt.Printf("  L%-3d -> L%-3d  %6d\n", l.From, l.To, l.Packets)
	}

	fmt.Println("\nhop-count histogram (delivered packets by landmark hops):")
	hops := log.HopHistogram()
	printBars(hops, func(i int) string { return fmt.Sprintf("%3d hop", i) })

	fmt.Println("\ndelay histogram (delivered packets per day of delay):")
	delays, width := log.DelayHistogram(trace.Day)
	printBars(delays, func(i int) string {
		return fmt.Sprintf("%4s", metrics.FormatDuration(float64(trace.Time(i)*width)))
	})
}

// printBars renders counts as labelled ASCII bars scaled to the maximum.
func printBars(counts []int, label func(i int) string) {
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		fmt.Println("  (empty)")
		return
	}
	for i, c := range counts {
		bar := strings.Repeat("#", c*40/max)
		fmt.Printf("  %s  %6d %s\n", label(i), c, bar)
	}
}

func printFlows(log *telemetry.Log) {
	flow := log.FlowMatrix()
	n := len(flow)
	fmt.Printf("landmark flow matrix (%d x %d, row = from, column = to):\n      ", n, n)
	for j := 0; j < n; j++ {
		fmt.Printf("%6d", j)
	}
	fmt.Println()
	for i, row := range flow {
		fmt.Printf("L%-4d ", i)
		for _, c := range row {
			if c == 0 {
				fmt.Printf("%6s", ".")
			} else {
				fmt.Printf("%6d", c)
			}
		}
		fmt.Println()
	}
}

func printLoads(log *telemetry.Log) {
	fmt.Println("landmark   generated  received      sent delivered  maxqueue")
	for _, ld := range log.LandmarkLoads() {
		fmt.Printf("L%-8d %9d %9d %9d %9d %9d\n",
			ld.Landmark, ld.Generated, ld.Received, ld.Sent, ld.Delivered, ld.MaxQueue)
	}
}

func printPacket(log *telemetry.Log, id int) {
	pt, ok := log.Packet(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "packet %d: no events in this recording\n", id)
		os.Exit(1)
	}
	fmt.Printf("packet %d: L%d -> L%d\n", pt.ID, pt.Src, pt.Dst)
	fmt.Printf("created:  t=%d\n", int64(pt.Created))
	path := make([]string, len(pt.Stations))
	for i, lm := range pt.Stations {
		path[i] = fmt.Sprintf("L%d", lm)
	}
	fmt.Printf("path:     %s (%d landmarks, %d forwarding ops)\n",
		strings.Join(path, " -> "), len(pt.Stations), pt.Hops)
	switch pt.Status {
	case telemetry.StatusDelivered:
		fmt.Printf("status:   delivered at t=%d (delay %s)\n",
			int64(pt.Finished), metrics.FormatDuration(float64(pt.Delay)))
	case telemetry.StatusDropped:
		fmt.Printf("status:   dropped (%s) at t=%d\n", pt.Reason, int64(pt.Finished))
	default:
		fmt.Println("status:   still in flight when the recording ended")
	}
}
