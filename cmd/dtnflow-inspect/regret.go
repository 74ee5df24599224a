// The -regret view joins a recording against the contact-graph oracle
// (internal/oracle): it rebuilds the trace the run saw — re-applying the
// recorded -disrupt argument when there was one — solves the relaxed
// earliest-arrival bound for every recorded packet, and prints the
// per-packet regret distribution plus a per-landmark decision-quality
// table from the replayed forwarding decisions.
package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/disrupt"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/telemetry"
)

// regretScenario rebuilds the scenario a recording was produced on: the
// named generator (or trace file) from the meta header, its trace
// perturbed by the same -disrupt argument the run used. traceArg
// overrides the meta scenario (for recordings whose scenario names a file
// moved since the run). A rebuilt trace whose population differs from the
// recorded one is refused: the recording's node and landmark IDs would
// not mean the same nodes and landmarks.
func regretScenario(m telemetry.Meta, traceArg string) (*experiment.Scenario, error) {
	name := traceArg
	if name == "" {
		name = m.Scenario
	}
	if name == "" {
		return nil, fmt.Errorf("recording has no scenario in its meta header; pass -trace")
	}
	sc, err := experiment.LoadTrace(name, 0)
	if err != nil {
		return nil, err
	}
	if m.DisruptArg != "" {
		if sc.Trace, _, err = disrupt.PerturbArg(sc.Trace, m.DisruptArg); err != nil {
			return nil, fmt.Errorf("re-applying disruption %q: %w", m.DisruptArg, err)
		}
	}
	if tr := sc.Trace; tr.NumNodes != m.Nodes || tr.NumLandmarks != m.Landmarks {
		return nil, fmt.Errorf("trace %s has %d nodes and %d landmarks, the recording %d and %d",
			name, tr.NumNodes, tr.NumLandmarks, m.Nodes, m.Landmarks)
	}
	return sc, nil
}

// regretConfig assembles the oracle physics from the meta header,
// falling back to the scenario's catalogue configuration for fields
// recordings from before the physics header (or with the default zero)
// don't carry.
func regretConfig(m telemetry.Meta, sc *experiment.Scenario) oracle.Config {
	cfg := oracle.ConfigFrom(sc.Config(m.Seed))
	if m.NodeMemory != 0 {
		cfg.NodeMemory = m.NodeMemory
	}
	if m.StationMemory != 0 {
		cfg.StationMemory = m.StationMemory
	}
	if m.LinkRate != 0 {
		cfg.LinkRate = m.LinkRate
	}
	if m.MaxContactTransfers != 0 {
		cfg.MaxContactTransfers = m.MaxContactTransfers
	}
	return cfg
}

func printRegret(log *telemetry.Log, traceArg string, topK int) {
	sc, err := regretScenario(log.Meta, traceArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnflow-inspect:", err)
		os.Exit(1)
	}
	tr := sc.Trace
	rep := oracle.Regret(log, tr, regretConfig(log.Meta, sc))

	m := log.Meta
	fmt.Printf("regret report: %s / %s (seed %d)", m.Scenario, m.Method, m.Seed)
	if m.DisruptArg != "" {
		fmt.Printf(", disrupted by %s", m.DisruptArg)
	}
	fmt.Println()
	fmt.Printf("oracle:     relaxed earliest-arrival bound on %s\n", tr.Summarize())

	if rep.Total == 0 {
		fmt.Println("no packet generations in this recording (ring wrapped? raise -telemetry-cap)")
		return
	}
	fmt.Printf("packets:    %d recorded, %d oracle-deliverable (upper bound %.3f)\n",
		rep.Total, rep.OracleDeliverable, float64(rep.OracleDeliverable)/float64(rep.Total))
	fmt.Printf("method:     %d delivered (%.3f), %d of them oracle-matched\n",
		rep.MethodDelivered, float64(rep.MethodDelivered)/float64(rep.Total), rep.Both)
	fmt.Printf("missed:     %d packets the oracle delivers and the method lost\n", rep.Missed)
	if rep.MethodOnly > 0 {
		fmt.Printf("VIOLATION:  %d packets delivered that the oracle bound calls undeliverable — physics divergence\n",
			rep.MethodOnly)
	}
	if rep.Both > 0 {
		fmt.Printf("regret:     mean %s, max %s (delivery delay beyond the oracle optimum)\n",
			metrics.FormatDuration(rep.MeanRegret), metrics.FormatDuration(float64(rep.MaxRegret)))
	}

	// The tail of the regret distribution: the packets the method lost
	// the most time on, worth a -packet lifecycle look.
	worst := make([]oracle.PacketRegret, 0, len(rep.Packets))
	for _, pr := range rep.Packets {
		if pr.Delivered && pr.OracleDeliverable && pr.Regret > 0 {
			worst = append(worst, pr)
		}
	}
	sort.Slice(worst, func(i, j int) bool { return worst[i].Regret > worst[j].Regret })
	if len(worst) > topK {
		worst = worst[:topK]
	}
	if len(worst) > 0 {
		fmt.Printf("\ntop %d highest-regret packets (inspect one with -packet ID):\n", len(worst))
		for _, pr := range worst {
			fmt.Printf("  #%-6d L%-3d -> L%-3d  achieved %8s after the oracle's %8s  regret %8s\n",
				pr.ID, pr.Src, pr.Dst,
				metrics.FormatDuration(float64(pr.Achieved-pr.Created)),
				metrics.FormatDuration(float64(pr.OracleEAT-pr.Created)),
				metrics.FormatDuration(float64(pr.Regret)))
		}
	}

	if rep.Decisions == 0 {
		fmt.Println("\nno forwarding decisions in this recording (older export, or ring wrapped)")
		return
	}
	fmt.Printf("\nper-landmark decision quality (%d chosen decisions replayed", rep.Decisions)
	if rep.Skipped > 0 {
		fmt.Printf(", %d skipped", rep.Skipped)
	}
	fmt.Println("):")
	fmt.Println("landmark  decisions     agree      topk     fatal  mean-regret")
	for _, lr := range rep.Landmarks {
		fmt.Printf("L%-8d %9d %9d %9d %9d  %11s\n",
			lr.Landmark, lr.Decisions, lr.Agree, lr.TopK, lr.Fatal,
			metrics.FormatDuration(lr.MeanRegret()))
	}
}
