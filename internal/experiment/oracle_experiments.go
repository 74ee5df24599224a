package experiment

import "fmt"

// The oracle experiment prints the offline yardstick the paper lacks:
// the contact-graph oracle's relaxed upper bound and committed feasible
// schedule for both scenarios (steady-state and storm-disrupted), then
// every method's gap to the bound at the default rate.

func init() {
	register(&Experiment{ID: "oracle", Title: "Offline contact-graph oracle vs every method", Paper: "yardstick", Run: runOracle})
}

func runOracle(opt Options) *Report {
	rep := &Report{ID: "oracle", Title: "Offline contact-graph oracle vs every method", Paper: "yardstick"}
	for _, sc := range BothScenarios(opt.Scale) {
		bounds := Section{
			Heading: sc.String() + " — oracle bounds (seed 1, default rate)",
			Columns: []string{"run", "packets", "deliverable", "upper-bound", "mean-delay", "committed", "committed-rate"},
		}
		_, steady := sc.OracleFor(1, 0, opt.Workers)
		addOracleRow := func(label string, s OracleSummary) {
			bounds.AddRow(label, fmt.Sprint(s.Packets), fmt.Sprint(s.Deliverable),
				f3(s.UpperBound), fd(s.MeanDelay), fmt.Sprint(s.CommittedDelivered), f3(s.CommittedRate))
		}
		addOracleRow("steady", steady)
		if _, storm, err := sc.OracleDisrupted(1, 0, opt.Workers, "storm"); err == nil {
			addOracleRow("storm", storm)
		}
		bounds.Notes = append(bounds.Notes,
			"upper-bound: relaxed earliest-arrival ceiling (capacities ignored) — provable, no method can beat it",
			"committed: capacity-respecting greedy schedule in generation order — a feasible lower anchor for \"optimal\"")
		rep.Sections = append(rep.Sections, bounds)

		sums := cellSummaries(opt, SweepCells([]string{sc.Name}, opt.Scale, MethodNames, 1, 0))
		gap := Section{
			Heading: sc.Name + " — method gap to the bound",
			Columns: []string{"method", "success", "gap-to-bound", "avg-delay", "delay-vs-oracle"},
		}
		for i, m := range MethodNames {
			s := sums[i]
			ratio := "-"
			if steady.MeanDelay > 0 {
				ratio = f2(s.AvgDelay / steady.MeanDelay)
			}
			gap.AddRow(m, f3(s.SuccessRate), f3(steady.UpperBound-s.SuccessRate), fd(s.AvgDelay), ratio)
		}
		rep.Sections = append(rep.Sections, gap)
	}
	return rep
}
