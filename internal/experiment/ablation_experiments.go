package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/synth"
)

// Ablations of DTN-FLOW's design choices, as indexed in DESIGN.md. Each
// toggles one mechanism the paper motivates and reports the headline
// metrics on both traces.

func init() {
	register(&Experiment{ID: "ablation-order", Title: "Markov predictor order k", Paper: "IV-B ablation", Run: runAblationOrder})
	register(&Experiment{ID: "ablation-po", Title: "Carrier selection: p_t vs p_o = p_t*p_a", Paper: "IV-D.4 ablation",
		Run: ablationToggle("ablation-po", "IV-D.4 ablation", "p_o (with accuracy)", "p_t only",
			func(c *core.Config) { c.UseAccuracy = false })})
	register(&Experiment{ID: "ablation-direct", Title: "Direct-delivery exploitation", Paper: "IV-D.2 ablation",
		Run: ablationToggle("ablation-direct", "IV-D.2 ablation", "with direct delivery", "without",
			func(c *core.Config) { c.DirectDelivery = false })})
	register(&Experiment{ID: "ablation-hold", Title: "Prediction-inaccuracy rule (hold vs always-upload)", Paper: "IV-D.1 ablation",
		Run: ablationToggle("ablation-hold", "IV-D.1 ablation", "hold on worse landmark", "always upload",
			func(c *core.Config) { c.HoldOnWorse = false })})
	register(&Experiment{ID: "ablation-ewma", Title: "Bandwidth EWMA weight rho", Paper: "IV-C.1 ablation", Run: runAblationEWMA})
	register(&Experiment{ID: "ablation-landmarks", Title: "Landmark count (separation distance)", Paper: "IV-A.3 ablation", Run: runAblationLandmarks})
}

// ablationToggle builds a two-variant ablation runner.
func ablationToggle(id, paper, onLabel, offLabel string, disable func(*core.Config)) func(Options) *Report {
	return func(opt Options) *Report {
		rep := &Report{ID: id, Title: onLabel + " vs " + offLabel, Paper: paper}
		for _, sc := range BothScenarios(opt.Scale) {
			sums := cellSummaries(opt, []Cell{flowCell(opt, sc, nil), flowCell(opt, sc, disable)})
			sec := Section{Heading: sc.String(), Columns: []string{"variant", "success", "avg delay", "fwd cost", "total cost"}}
			for i, label := range []string{onLabel, offLabel} {
				s := sums[i]
				sec.AddRow(label, f3(s.SuccessRate), fd(s.AvgDelay), fmt.Sprint(s.Forwarding), fmt.Sprint(s.TotalCost))
			}
			rep.Sections = append(rep.Sections, sec)
		}
		return rep
	}
}

func runAblationOrder(opt Options) *Report {
	rep := &Report{ID: "ablation-order", Title: "Routing with order-k transit prediction", Paper: "IV-B ablation"}
	for _, sc := range BothScenarios(opt.Scale) {
		var cells []Cell
		ks := []int{1, 2, 3}
		for _, k := range ks {
			cells = append(cells, flowCell(opt, sc, func(c *core.Config) { c.Order = k }))
		}
		sums := cellSummaries(opt, cells)
		sec := Section{Heading: sc.String(), Columns: []string{"order", "success", "avg delay", "fwd cost"}}
		for i, k := range ks {
			s := sums[i]
			sec.AddRow(fmt.Sprint(k), f3(s.SuccessRate), fd(s.AvgDelay), fmt.Sprint(s.Forwarding))
		}
		sec.Notes = append(sec.Notes, "paper uses k=1 (best prediction accuracy on both traces, Fig. 6a)")
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

func runAblationEWMA(opt Options) *Report {
	rep := &Report{ID: "ablation-ewma", Title: "Bandwidth EWMA weight rho (Eq. 4)", Paper: "IV-C.1 ablation"}
	rhos := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	for _, sc := range BothScenarios(opt.Scale) {
		var cells []Cell
		for _, rho := range rhos {
			cells = append(cells, flowCell(opt, sc, func(c *core.Config) { c.Rho = rho }))
		}
		sums := cellSummaries(opt, cells)
		sec := Section{Heading: sc.String(), Columns: []string{"rho", "success", "avg delay"}}
		for i, rho := range rhos {
			sec.AddRow(f2(rho), f3(sums[i].SuccessRate), fd(sums[i].AvgDelay))
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

// runAblationLandmarks varies the number of landmarks on the DART-like
// scenario by regenerating the trace with different landmark counts —
// the IV-A.3 trade-off: more landmarks give finer destinations but less
// stable transit patterns.
func runAblationLandmarks(opt Options) *Report {
	rep := &Report{ID: "ablation-landmarks", Title: "Landmark count trade-off (DART-like)", Paper: "IV-A.3 ablation"}
	counts := []int{40, 80, 120, 159}
	if opt.Scale != Full {
		counts = []int{20, 30, 40}
	}
	sec := Section{Columns: []string{"landmarks", "success", "avg delay", "fwd cost", "prediction acc (k=1)"}}
	var runs []Run
	var scens []*Scenario
	for _, n := range counts {
		cfg := synth.DefaultDART()
		if opt.Scale != Full {
			cfg.Nodes = 80
			cfg.Days = 42
			cfg.Communities = 8
		}
		cfg.Landmarks = n
		sc := settings["DART"][Full]
		sc.Name, sc.Trace = fmt.Sprintf("DART-%dL", n), synth.DART(cfg)
		scens = append(scens, &sc)
		runs = append(runs, Run{Scenario: &sc, Router: routerFactory("DTN-FLOW"), Seed: 1})
	}
	sums := Parallel(runs, opt.Workers)
	for i, n := range counts {
		acc := predictionAccuracy(scens[i])
		s := sums[i]
		sec.AddRow(fmt.Sprint(n), f3(s.SuccessRate), fd(s.AvgDelay), fmt.Sprint(s.Forwarding), f3(acc))
	}
	sec.Notes = append(sec.Notes, "IV-A.3: more landmarks diversify transits and reduce per-landmark prediction stability")
	rep.Sections = append(rep.Sections, sec)
	return rep
}

// predictionAccuracy is the average order-1 predict-as-you-go accuracy
// over the scenario's nodes.
func predictionAccuracy(sc *Scenario) float64 {
	avg, _ := predict.EvaluateAll(1, sc.Trace.LandmarkSequences())
	return avg
}
