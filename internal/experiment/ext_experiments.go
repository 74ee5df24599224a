package experiment

import (
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Extension experiments (Section V-B): dead-end prevention (Table VI),
// routing-loop detection and correction (Table VII), and load balancing
// (Tables VIII and IX).

func init() {
	register(&Experiment{ID: "table6", Title: "Dead-end prevention", Paper: "Table VI", Run: runTable6})
	register(&Experiment{ID: "table7", Title: "Loop detection and correction", Paper: "Table VII", Run: runTable7})
	register(&Experiment{ID: "table8", Title: "Load balancing: success rate", Paper: "Table VIII",
		Run: func(opt Options) *Report { return runLoadBalance(opt, "table8", "Table VIII", true) }})
	register(&Experiment{ID: "table9", Title: "Load balancing: average delay", Paper: "Table IX",
		Run: func(opt Options) *Report { return runLoadBalance(opt, "table9", "Table IX", false) }})
}

// flowCell returns the seed-1 DTN-FLOW run cell on scenario sc at
// opt.Scale whose router configuration mod (nil: none) makes from the
// default; a configuration left at the default gives the plain DTN-FLOW
// cell.
func flowCell(opt Options, sc *Scenario, mod func(*core.Config)) Cell {
	c := Cell{Kind: CellRun, Scenario: sc.Name, Scale: string(opt.Scale), Method: "DTN-FLOW", Seed: 1}
	cfg := core.DefaultConfig()
	if mod != nil {
		mod(&cfg)
	}
	if cfg != core.DefaultConfig() {
		c.Flow = &cfg
	}
	return c
}

func runTable6(opt Options) *Report {
	rep := &Report{ID: "table6", Title: "Experimental results on dead-end prevention", Paper: "Table VI"}
	gammas := []float64{0, 2, 3, 4, 5} // 0 = ORG (prevention off)
	for _, sc := range BothScenarios(opt.Scale) {
		var cells []Cell
		for _, g := range gammas {
			cells = append(cells, flowCell(opt, sc, func(c *core.Config) {
				if g > 0 {
					c.DeadEnd = true
					c.Gamma = g
				}
			}))
		}
		sums := cellSummaries(opt, cells)
		sec := Section{Heading: sc.String(), Columns: []string{"", "ORG", "γ=2", "γ=3", "γ=4", "γ=5"}}
		hit := []string{"Hit rate"}
		del := []string{"Delay"}
		for _, s := range sums {
			hit = append(hit, f3(s.SuccessRate))
			del = append(del, fd(s.AvgDelay))
		}
		sec.AddRow(hit...)
		sec.AddRow(del...)
		sec.Notes = append(sec.Notes, "paper: prevention raises the hit rate and lowers delay; γ=2 performs best")
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

// injectLoops schedules x loop injections one time unit after warmup.
func injectLoops(x int) func(*sim.Engine, sim.Router) {
	return func(eng *sim.Engine, r sim.Router) {
		router := r.(*core.Router)
		ctx := eng.Context()
		// MeasureFrom, not the context trace's span: a streamed engine's
		// context trace carries no visits.
		ctx.Schedule(ctx.MeasureFrom()+ctx.Cfg.Unit, func() {
			nL := ctx.NumLandmarks()
			injected := 0
			for d := 0; d < nL && injected < x; d++ {
				dest := (d*7 + 3) % nL // spread destinations deterministically
				if router.InjectLoop(dest) != nil {
					injected++
				}
			}
		})
	}
}

func runTable7(opt Options) *Report {
	rep := &Report{ID: "table7", Title: "Experimental results on loop detection and correction", Paper: "Table VII"}
	type cfg struct {
		label string
		loops int
		fix   bool
	}
	cfgs := []cfg{
		{"ORG-2", 2, false}, {"W-2", 2, true},
		{"ORG-3", 3, false}, {"W-3", 3, true},
	}
	for _, sc := range BothScenarios(opt.Scale) {
		var cells []Cell
		for _, c := range cfgs {
			cell := flowCell(opt, sc, func(fc *core.Config) { fc.LoopFix = c.fix })
			cell.Loops = c.loops
			cells = append(cells, cell)
		}
		sums := cellSummaries(opt, cells)
		sec := Section{Heading: sc.String(), Columns: []string{"", "ORG-2", "W-2", "ORG-3", "W-3"}}
		hit := []string{"Hit rate"}
		del := []string{"O. Delay"}
		for _, s := range sums {
			hit = append(hit, f3(s.SuccessRate))
			del = append(del, fd(s.OverallDelay))
		}
		sec.AddRow(hit...)
		sec.AddRow(del...)
		sec.Notes = append(sec.Notes,
			"paper: injected loops depress the hit rate without correction; with correction (W-x) hit rates return near loop-free levels and overall delay drops")
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

func runLoadBalance(opt Options, id, paper string, successTable bool) *Report {
	title := "Experimental results of load balancing on "
	if successTable {
		title += "success rate"
	} else {
		title += "average delay"
	}
	rep := &Report{ID: id, Title: title, Paper: paper}
	rates := []float64{1100, 1200, 1300, 1400, 1500}
	switch opt.Scale {
	case Quick:
		rates = []float64{550, 600, 650, 700, 750}
	case Tiny:
		rates = []float64{550, 650, 750}
	}
	for _, sc := range BothScenarios(opt.Scale) {
		var cells []Cell
		for _, balance := range []bool{true, false} {
			for _, rate := range rates {
				cell := flowCell(opt, sc, func(c *core.Config) { c.LoadBalance = balance })
				cell.Rate = rate
				cells = append(cells, cell)
			}
		}
		sums := cellSummaries(opt, cells)
		cols := []string{"rate"}
		for _, r := range rates {
			cols = append(cols, fint(r))
		}
		sec := Section{Heading: sc.String(), Columns: cols}
		render := func(label string, part []metrics.Summary) {
			row := []string{label}
			for _, s := range part {
				if successTable {
					row = append(row, f3(s.SuccessRate))
				} else {
					row = append(row, fd(s.AvgDelay))
				}
			}
			sec.AddRow(row...)
		}
		render("W-Balance", sums[:len(rates)])
		render("W/O-Balance", sums[len(rates):])
		if successTable {
			sec.Notes = append(sec.Notes, "paper: balancing raises the success rate at overload rates")
		} else {
			sec.Notes = append(sec.Notes, "paper: balancing lowers the average delay at overload rates")
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}
