package experiment

// Main comparison experiments: performance of the six methods under
// varying node memory (Figs. 11–12) and packet rate (Figs. 13–14), each
// reporting success rate, average delay, forwarding cost and total cost.

func init() {
	register(&Experiment{ID: "fig11", Title: "Performance vs memory size (DART)", Paper: "Fig. 11",
		Run: func(opt Options) *Report { return runPerfSweep(opt, DARTScenario, "fig11", "Fig. 11", true) }})
	register(&Experiment{ID: "fig12", Title: "Performance vs memory size (DNET)", Paper: "Fig. 12",
		Run: func(opt Options) *Report { return runPerfSweep(opt, DNETScenario, "fig12", "Fig. 12", true) }})
	register(&Experiment{ID: "fig13", Title: "Performance vs packet rate (DART)", Paper: "Fig. 13",
		Run: func(opt Options) *Report { return runPerfSweep(opt, DARTScenario, "fig13", "Fig. 13", false) }})
	register(&Experiment{ID: "fig14", Title: "Performance vs packet rate (DNET)", Paper: "Fig. 14",
		Run: func(opt Options) *Report { return runPerfSweep(opt, DNETScenario, "fig14", "Fig. 14", false) }})
}

// memorySizes returns the paper's sweep: 1200–3000 kB in 200 kB steps
// (halved at Quick scale to keep pressure comparable on smaller traces).
func memorySizes(opt Options) []float64 {
	step := 200
	if opt.Scale == Tiny {
		step = 600 // 4 points instead of 10
	}
	var out []float64
	for kb := 1200; kb <= 3000; kb += step {
		v := float64(kb)
		if opt.Scale != Full {
			v /= 2
		}
		out = append(out, v)
	}
	return out
}

// packetRates returns the paper's sweep: 100–1000 packets/day in steps of
// 100.
func packetRates(opt Options) []float64 {
	step := 100
	if opt.Scale == Tiny {
		step = 300
	}
	var out []float64
	for r := 100; r <= 1000; r += step {
		v := float64(r)
		if opt.Scale != Full {
			v /= 2
		}
		out = append(out, v)
	}
	return out
}

// sweepReport renders one sweep as the figure's four sub-plots: a row
// per x-value with the seed-averaged group of every method (groups in
// MergeAverages order: x-major, then MethodNames) and the offline
// contact-graph oracle, seed-averaged per x (orc): the relaxed success
// ceiling on plot (a), its mean delay on plot (b), and "-" on the cost
// plots (the bound does not model forwarding cost).
func sweepReport(id, title, paper, xname string, xs []float64, groups []CellGroup, orc []OracleSummary) *Report {
	rep := &Report{ID: id, Title: title, Paper: paper}
	noOracle := func(OracleSummary) string { return "-" }
	for _, md := range []struct {
		heading string
		cell    func(a Averaged) string
		oracle  func(o OracleSummary) string
	}{
		{"(a) success rate", func(a Averaged) string { return ci(a.Success, a.SuccessCI, f3) },
			func(o OracleSummary) string { return f3(o.UpperBound) }},
		{"(b) average delay", func(a Averaged) string { return ci(a.Delay, a.DelayCI, fd) },
			func(o OracleSummary) string { return fd(o.MeanDelay) }},
		{"(c) forwarding cost", func(a Averaged) string { return fint(a.Forwarding) }, noOracle},
		{"(d) total cost", func(a Averaged) string { return fint(a.TotalCost) }, noOracle},
	} {
		sec := Section{Heading: md.heading, Columns: append(append([]string{xname}, MethodNames...), "ORACLE")}
		for i, x := range xs {
			row := []string{fint(x)}
			for _, g := range groups[i*len(MethodNames) : (i+1)*len(MethodNames)] {
				row = append(row, md.cell(g.Averaged))
			}
			sec.AddRow(append(row, md.oracle(orc[i]))...)
		}
		rep.Sections = append(rep.Sections, sec)
	}
	return rep
}

// runPerfSweep runs one of Figs. 11–14: the six methods and the oracle
// over node memory (memory) or packet rate (otherwise). Every (x,
// method, seed) run and every (x, seed) oracle solve is a cell, so
// opt.Store serves the ones it holds; the oracle column averages each
// x's seeds in seed order.
func runPerfSweep(opt Options, scenario func(Scale) *Scenario, id, paper string, memory bool) *Report {
	sc := scenario(opt.Scale)
	xs, axis, xname := packetRates(opt), "packet rates", "rate(pkt/day)"
	note := "paper shape: success decreases and delay increases as the packet rate grows; DTN-FLOW stays best"
	if memory {
		xs, axis, xname = memorySizes(opt), "memory sizes", "memory(kB)"
		note = "paper shape: DTN-FLOW highest success and lowest delay; success grows with memory; PGR lowest success"
	}
	seeds := max(opt.Seeds, 1)
	var runs, solves []Cell
	for _, x := range xs {
		p := Cell{Kind: CellOracle, Scenario: sc.Name, Scale: string(opt.Scale), Rate: x}
		if memory {
			p.Rate, p.Memory = 0, x
		}
		for _, c := range SweepCells([]string{sc.Name}, opt.Scale, MethodNames, seeds, p.Rate) {
			c.Memory = p.Memory
			runs = append(runs, c)
		}
		for s := 1; s <= seeds; s++ {
			p.Seed = int64(s)
			solves = append(solves, p)
		}
	}
	results, err := RunCells(append(runs, solves...), opt)
	if err != nil {
		panic(err)
	}
	orc := make([]OracleSummary, len(xs))
	for k, r := range results[len(runs):] {
		o := &orc[k/seeds]
		o.UpperBound += r.Oracle.UpperBound
		o.MeanDelay += r.Oracle.MeanDelay
	}
	for i := range orc {
		orc[i].UpperBound /= float64(seeds)
		orc[i].MeanDelay /= float64(seeds)
	}
	rep := sweepReport(id, "Performance with different "+axis+" ("+sc.Name+")", paper, xname,
		xs, MergeAverages(results[:len(runs)]), orc)
	rep.Sections[0].Notes = append(rep.Sections[0].Notes, note,
		"ORACLE: offline contact-graph relaxed bound — no method can exceed it (see DESIGN.md)")
	return rep
}
