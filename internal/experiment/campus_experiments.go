package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Real-deployment experiments (Section V-C): the nine-phone campus system
// in which every landmark sends data to the library (L1). Fig. 16 reports
// the success rate, the delay distribution and the transit-link bandwidths;
// Table X shows the routing tables on L2, L5 and L8.

func init() {
	register(&Experiment{ID: "fig16", Title: "Campus deployment: success, delay, link bandwidths", Paper: "Fig. 16", Run: runFig16})
	register(&Experiment{ID: "table10", Title: "Campus deployment: routing tables", Paper: "Table X", Run: runTable10})
}

// campusRun executes the deployment scenario (the catalogue's CAMPUS
// run: 75 packets per landmark in the daytime to L1, 50 kB per phone)
// and returns the engine's router and result for inspection.
func campusRun(opt Options) (*Scenario, *core.Router, *sim.Result) {
	sc := cachedScenario("CAMPUS", opt.Scale)
	router := core.New(core.DefaultConfig())
	cfg, w := sc.Setup(1, 0, 0)
	return sc, router, sim.New(sc.Trace, router, w, cfg).Run()
}

func runFig16(opt Options) *Report {
	sc, _, res := campusRun(opt)
	rep := &Report{ID: "fig16", Title: "Experimental results in real deployment", Paper: "Fig. 16"}

	sum := res.Summary
	a := Section{
		Heading: "(a) success rate and delay of delivered packets — " + sc.String(),
		Columns: []string{"metric", "value"},
	}
	a.AddRow("success rate", f3(sum.SuccessRate))
	a.AddRow("min delay", fmin(sum.DelayQ[0]))
	a.AddRow("q1 delay", fmin(sum.DelayQ[1]))
	a.AddRow("mean delay", fmin(sum.DelayQ[2]))
	a.AddRow("q3 delay", fmin(sum.DelayQ[3]))
	a.AddRow("max delay", fmin(sum.DelayQ[4]))
	a.Notes = append(a.Notes, "paper: >82% success, >75% of packets within 1400 min, mean ~1000 min")
	rep.Sections = append(rep.Sections, a)

	b := Section{
		Heading: "(b) bandwidths of transit links (>= 0.14 transits/unit, unit=12h)",
		Columns: []string{"link", "bandwidth"},
	}
	for _, lb := range trace.Bandwidths(sc.Trace, sc.Unit) {
		if lb.Bandwidth < 0.14 {
			break
		}
		b.AddRow(campusName(lb.Link.From)+"->"+campusName(lb.Link.To), f2(lb.Bandwidth))
	}
	b.Notes = append(b.Notes, "paper: the links between L1 (library) and the dominant department buildings carry the highest bandwidth")
	rep.Sections = append(rep.Sections, b)
	return rep
}

func runTable10(opt Options) *Report {
	_, router, _ := campusRun(opt)
	rep := &Report{ID: "table10", Title: "Routing tables in L2, L5 and L8", Paper: "Table X"}
	for _, lm := range []int{synth.CampusL2, synth.CampusL5, synth.CampusL8} {
		sec := Section{
			Heading: "routing table on " + campusName(lm),
			Columns: []string{"dest", "next hop", "overall delay"},
		}
		for _, e := range router.Table(lm).Entries() {
			sec.AddRow(campusName(e.Dest), campusName(e.Next), fmin(e.Delay))
		}
		rep.Sections = append(rep.Sections, sec)
	}
	rep.Sections[len(rep.Sections)-1].Notes = append(rep.Sections[len(rep.Sections)-1].Notes,
		"paper: tables match the fastest paths over the measured transit-link bandwidths")
	return rep
}

// campusName renders the paper's 1-based landmark labels.
func campusName(idx int) string { return fmt.Sprintf("L%d", idx+1) }

// fmin formats seconds as minutes (the unit Fig. 16 uses).
func fmin(sec float64) string { return fmt.Sprintf("%.0fmin", sec/60) }
