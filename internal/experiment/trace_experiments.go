package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Trace-analysis experiments: Table I and Figs. 2, 3, 4, 6, 8.

func init() {
	register(&Experiment{ID: "table1", Title: "Characteristics of mobility traces", Paper: "Table I", Run: runTable1})
	register(&Experiment{ID: "fig2", Title: "Visiting distribution of top-5 most visited landmarks", Paper: "Fig. 2", Run: runFig2})
	register(&Experiment{ID: "fig3", Title: "Bandwidth distribution of transit links", Paper: "Fig. 3", Run: runFig3})
	register(&Experiment{ID: "fig4", Title: "Bandwidth of top-3 transit links over time", Paper: "Fig. 4", Run: runFig4})
	register(&Experiment{ID: "fig6", Title: "Accuracy of the transit prediction", Paper: "Fig. 6", Run: runFig6})
	register(&Experiment{ID: "fig8", Title: "Routing table coverage and stability", Paper: "Fig. 8", Run: runFig8})
}

// analysisUnit returns the trace-analysis time unit of Section III-B.3 at
// every scale: the Full scenario's unit, 3 days for DART and half a day
// for DNET.
func analysisUnit(sc *Scenario) trace.Time { return settings[sc.Name][Full].Unit }

func runTable1(opt Options) *Report {
	rep := &Report{ID: "table1", Title: "Characteristics of mobility traces", Paper: "Table I"}
	sec := Section{Columns: []string{"trace", "nodes", "landmarks", "duration(d)", "visits", "transits"}}
	for _, sc := range BothScenarios(opt.Scale) {
		c := sc.Trace.Summarize()
		sec.AddRow(c.Name, fmt.Sprint(c.NumNodes), fmt.Sprint(c.NumLandmarks),
			f2(float64(c.Duration)/86400), fmt.Sprint(c.NumVisits), fmt.Sprint(c.NumTransits))
	}
	sec.Notes = append(sec.Notes, "paper: DART 320 nodes / 159 landmarks / ~17 weeks; DNET 34 buses / 18 landmarks / ~25 days")
	rep.Sections = append(rep.Sections, sec)
	return rep
}

func runFig2(opt Options) *Report {
	rep := &Report{ID: "fig2", Title: "Visiting distribution of top-5 most visited landmarks", Paper: "Fig. 2"}
	for _, sc := range BothScenarios(opt.Scale) {
		sec := Section{
			Heading: sc.String(),
			Columns: []string{"landmark", "top-10 per-node visit counts (desc)", "frequent visitors (>=20% of max)", "visitors"},
		}
		for _, lm := range trace.TopLandmarks(sc.Trace, 5) {
			dist := trace.VisitingDistribution(sc.Trace, lm)
			head := dist
			if len(head) > 10 {
				head = head[:10]
			}
			freq, nonzero := 0, 0
			for _, v := range dist {
				if v > 0 {
					nonzero++
				}
				if len(dist) > 0 && dist[0] > 0 && v*5 >= dist[0] {
					freq++
				}
			}
			sec.AddRow(fmt.Sprintf("L%d", lm), fmt.Sprint(head), fmt.Sprint(freq), fmt.Sprint(nonzero))
		}
		sec.Notes = append(sec.Notes, "O1: only a small portion of nodes visit each landmark frequently")
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

func runFig3(opt Options) *Report {
	rep := &Report{ID: "fig3", Title: "Bandwidth distribution of transit links", Paper: "Fig. 3"}
	for _, sc := range BothScenarios(opt.Scale) {
		unit := analysisUnit(sc)
		bws := trace.Bandwidths(sc.Trace, unit)
		sec := Section{
			Heading: sc.String() + fmt.Sprintf(" — %d transit links, unit=%s", len(bws), dur(unit)),
			Columns: []string{"percentile", "bandwidth (transits/unit)"},
		}
		for _, q := range []float64{0, 0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 1} {
			i := int(q * float64(len(bws)-1))
			sec.AddRow(fmt.Sprintf("p%02.0f", q*100), f2(bws[i].Bandwidth))
		}
		sym := trace.MatchingSymmetry(sc.Trace, unit)
		if len(sym) > 0 {
			sec.Notes = append(sec.Notes,
				fmt.Sprintf("O2: a small portion of links have high bandwidth (p00/p50 = %.1fx)", bws[0].Bandwidth/bws[len(bws)/2].Bandwidth),
				fmt.Sprintf("O3: matching links symmetric — median min/max bandwidth ratio %.2f over %d pairs", sym[len(sym)/2], len(sym)))
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

func runFig4(opt Options) *Report {
	rep := &Report{ID: "fig4", Title: "Bandwidth of top-3 transit links over time", Paper: "Fig. 4"}
	notes := []string{ // one per scenario of BothScenarios, in order
		"O4 + holiday dips: DART shows two low-activity windows (holiday analogues)",
		"O4: DNET bandwidth is more stable around its average than DART",
	}
	for i, sc := range BothScenarios(opt.Scale) {
		unit := analysisUnit(sc)
		bws := trace.Bandwidths(sc.Trace, unit)
		n := 3
		if len(bws) < n {
			n = len(bws)
		}
		sec := Section{
			Heading: sc.String(),
			Columns: []string{"unit"},
		}
		var series [][]float64
		for i := 0; i < n; i++ {
			l := bws[i].Link
			sec.Columns = append(sec.Columns, fmt.Sprintf("L%d->L%d", l.From, l.To))
			series = append(series, trace.BandwidthSeries(sc.Trace, l, unit))
		}
		units := 0
		for _, s := range series {
			if len(s) > units {
				units = len(s)
			}
		}
		for u := 0; u < units; u++ {
			row := []string{fmt.Sprint(u)}
			for _, s := range series {
				if u < len(s) {
					row = append(row, fint(s[u]))
				} else {
					row = append(row, "-")
				}
			}
			sec.AddRow(row...)
		}
		sec.Notes = append(sec.Notes, notes[i])
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

func runFig6(opt Options) *Report {
	rep := &Report{ID: "fig6", Title: "Accuracy of the transit prediction", Paper: "Fig. 6"}
	secA := Section{
		Heading: "(a) average prediction accuracy of the order-k predictor",
		Columns: []string{"trace", "k=1", "k=2", "k=3"},
	}
	secB := Section{
		Heading: "(b) five-number summary of per-node accuracy, order-1",
		Columns: []string{"trace", "min", "q1", "mean", "q3", "max"},
	}
	for _, sc := range BothScenarios(opt.Scale) {
		seqs := sc.Trace.LandmarkSequences()
		row := []string{sc.Name}
		for k := 1; k <= 3; k++ {
			avg, _ := predict.EvaluateAll(k, seqs)
			row = append(row, f3(avg))
		}
		secA.AddRow(row...)
		_, s := predict.EvaluateAll(1, seqs)
		secB.AddRow(sc.Name, f3(s.Min), f3(s.Q1), f3(s.Mean), f3(s.Q3), f3(s.Max))
	}
	secA.Notes = append(secA.Notes, "paper: k=1 best on both traces (missing records penalise longer contexts); DART ~0.77, DNET ~0.66")
	rep.Sections = append(rep.Sections, secA, secB)
	return rep
}

func runFig8(opt Options) *Report {
	rep := &Report{ID: "fig8", Title: "Routing table coverage and stability", Paper: "Fig. 8"}
	for _, sc := range BothScenarios(opt.Scale) {
		nL := sc.Trace.NumLandmarks
		start, end := sc.Trace.Span()
		obs := 10
		interval := (end - start) / trace.Time(obs)
		type sample struct{ coverage, stability float64 }
		samples := make([]sample, 0, obs)

		router := core.New(core.DefaultConfig())
		cfg, w := sc.Setup(1, 0, 0)
		eng := sim.New(sc.Trace, router, w, cfg)
		prev := make([]*routing.Table, nL)
		nextObs := start + interval
		router.UnitHook = func(seq int) {
			now := start + trace.Time(seq+1)*cfg.Unit
			if now < nextObs {
				return
			}
			nextObs += interval
			var cov, stab float64
			for lm := 0; lm < nL; lm++ {
				t := router.Table(lm)
				cov += t.Coverage(nL)
				if prev[lm] != nil {
					changed := routing.NextHopChanges(prev[lm], t)
					stab += 1 - float64(changed)/float64(nL)
				}
				// First observation: every route is new, stability 0.
				prev[lm] = t.Snapshot()
			}
			samples = append(samples, sample{cov / float64(nL), stab / float64(nL)})
		}
		eng.Run()

		sec := Section{
			Heading: sc.String(),
			Columns: []string{"observation", "avg coverage", "avg stability"},
		}
		for i, s := range samples {
			sec.AddRow(fmt.Sprint(i+1), f3(s.coverage), f3(s.stability))
		}
		sec.Notes = append(sec.Notes, "paper: coverage near 1 and tables stable after the first several observation points")
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

func dur(t trace.Time) string {
	if t%trace.Day == 0 {
		return fmt.Sprintf("%dd", t/trace.Day)
	}
	return fmt.Sprintf("%.1fd", float64(t)/float64(trace.Day))
}
