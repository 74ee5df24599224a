package validate

import (
	"fmt"
	"io"

	"repro/internal/disrupt"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// BatteryOptions configure the full validation battery.
type BatteryOptions struct {
	Scale     experiment.Scale // default Tiny
	Methods   []string         // default experiment.MethodNames
	Seeds     int              // seeds for the fork-equivalence check (default 2)
	Rate      float64          // packets/day; 0 = scenario default
	FuzzSpecs int              // property-fuzzer specs to run (0 = skip)
	Log       func(format string, args ...any)
}

func (o BatteryOptions) normalized() BatteryOptions {
	if o.Scale == "" {
		o.Scale = experiment.Tiny
	}
	if len(o.Methods) == 0 {
		o.Methods = experiment.MethodNames
	}
	if o.Seeds < 2 {
		o.Seeds = 2
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Item is one check of the battery.
type Item struct {
	Name   string
	Pass   bool
	Detail string
}

// Report collects the battery's results.
type Report struct {
	Items []Item
}

func (r *Report) add(name string, pass bool, detail string) {
	r.Items = append(r.Items, Item{Name: name, Pass: pass, Detail: detail})
}

// Failed reports whether any item failed.
func (r *Report) Failed() bool {
	for _, it := range r.Items {
		if !it.Pass {
			return true
		}
	}
	return false
}

// Print writes the report, one line per item, failures marked.
func (r *Report) Print(w io.Writer) {
	pass := 0
	for _, it := range r.Items {
		status := "PASS"
		if it.Pass {
			pass++
		} else {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%s  %-40s %s\n", status, it.Name, firstLine(it.Detail))
	}
	fmt.Fprintf(w, "%d/%d checks passed\n", pass, len(r.Items))
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i] + " ..."
		}
	}
	return s
}

// RunBattery executes the full validation suite: the O1–O4 paper-fidelity
// checks on every scenario trace, the invariant checker (with telemetry
// cross-checks) under every method, checker-neutrality (bit-identical
// results with the checker on and off), warm-state fork equivalence, and
// optionally a property-fuzz campaign. This is what the dtnflow-validate
// CLI and the CI validate job run.
func RunBattery(opt BatteryOptions) *Report {
	opt = opt.normalized()
	rep := &Report{}
	for _, sc := range experiment.BothScenarios(opt.Scale) {
		opt.Log("validating %v", sc)
		rate := opt.Rate
		if rate <= 0 {
			rate = sc.RateDef
		}

		// Paper observations on the scenario's trace, at its time unit.
		for _, o := range CheckObservations(sc.Trace, sc.Unit) {
			rep.add(fmt.Sprintf("%s: %s", sc.Name, o.Name), o.Pass, o.Detail)
		}

		for _, m := range opt.Methods {
			name := sc.Name + "/" + m
			opt.Log("  %s", name)

			// Invariants: a checked run with a recorder attached so the
			// end-of-run telemetry cross-checks fire.
			ck := NewChecker()
			checked := experiment.Run{
				Scenario: sc,
				Router:   routerFor(m),
				Rate:     rate,
				Seed:     1,
				Probe:    telemetry.NewProbe(telemetry.NewRecorder(1 << 12)),
				Check:    ck,
			}.Execute()
			if err := ck.Err(); err != nil {
				rep.add(name+": invariants", false, err.Error())
			} else {
				rep.add(name+": invariants", true,
					fmt.Sprintf("%d packets, 0 violations", checked.Generated))
			}

			// Neutrality: the watched run must be bit-identical to a plain
			// one — the checker observes, never interferes. Compared by the
			// canonical SummaryFingerprint, the same reduction the
			// determinism tests use.
			plain := experiment.Run{Scenario: sc, Router: routerFor(m), Rate: rate, Seed: 1}.Execute()
			if experiment.SummaryFingerprint(plain) != experiment.SummaryFingerprint(checked) {
				rep.add(name+": checker-neutral", false,
					fmt.Sprintf("plain %+v, checked %+v", plain, checked))
			} else {
				rep.add(name+": checker-neutral", true, "identical summary with checker on and off")
			}

			// Fork equivalence: seeded runs forked from a shared
			// end-of-warmup snapshot must equal fresh end-to-end runs.
			rep.Items = append(rep.Items, forkEquivalence(sc, m, rate, opt.Seeds))
		}

		// Oracle dominance: the offline optimal router's relaxed bound
		// must dominate every method on the steady-state scenario — a
		// differential test of the engine physics against a second,
		// independent implementation (internal/oracle).
		opt.Log("  %s: oracle-dominance", sc.Name)
		rep.Items = append(rep.Items, oracleDominanceItem(sc, sc.Trace, nil, rate, opt.Methods))

		// Disrupted scenarios: every method stays invariant-clean and
		// engine-equivalent under three disruption presets — a pure
		// outage, pure churn, and the all-families storm.
		for _, preset := range []string{"outage", "churn", "storm"} {
			tr, sp, err := disrupt.PerturbArg(sc.Trace, preset)
			if err != nil {
				rep.add(sc.Name+": disrupted["+preset+"]", false, err.Error())
				continue
			}
			for _, m := range opt.Methods {
				name := fmt.Sprintf("%s/%s: disrupted[%s]", sc.Name, m, preset)
				opt.Log("  %s", name)
				rep.Items = append(rep.Items, disruptedRun(name, sc, tr, sp, m, rate))
			}
			if preset == "storm" {
				// The oracle's bound must also dominate on the harshest
				// perturbation — the oracle solves the same perturbed
				// trace the methods ran on.
				opt.Log("  %s: oracle-dominance [storm]", sc.Name)
				rep.Items = append(rep.Items, oracleDominanceItem(sc, tr, sp, rate, opt.Methods))
			}
		}
	}
	if opt.FuzzSpecs > 0 {
		fails := Fuzz(FuzzOptions{Specs: opt.FuzzSpecs, Log: opt.Log})
		if len(fails) > 0 {
			rep.add("fuzz", false, fails[0].String())
		} else {
			rep.add("fuzz", true, fmt.Sprintf("%d random specs, all properties held", opt.FuzzSpecs))
		}
	}
	return rep
}

func routerFor(m string) func() sim.Router {
	return func() sim.Router { return experiment.NewRouter(m) }
}

// disruptedRun executes one method on a perturbed scenario twice — over
// the materialized perturbed trace, under the disruption-armed invariant
// checker with telemetry cross-checks, and over a disrupt-wrapped stream
// — and requires a clean checker plus bit-identical summaries. The two
// runs reach the disruption's trace effects by different paths (Perturb
// and Wrap), so one item covers three contracts at once: the disruption
// invariants hold, the checker stays neutral, and the two trace-effect
// paths agree.
func disruptedRun(name string, sc *experiment.Scenario, tr *trace.Trace, sp *disrupt.Spec, method string, rate float64) Item {
	ck := NewChecker()
	ck.SetDisruption(sp)
	cfg, w := sc.Setup(1, rate, 0)
	cfg.Check = ck
	cfg.Probe = telemetry.NewProbe(telemetry.NewRecorder(1 << 12))
	sp.Apply(&cfg, w)
	materialized := sim.New(tr, experiment.NewRouter(method), w, cfg).Run().Summary
	if err := ck.Err(); err != nil {
		return Item{Name: name, Detail: err.Error()}
	}

	stCfg, stW := sc.Setup(1, rate, 0)
	sp.Apply(&stCfg, stW)
	open := disrupt.Wrap(func() trace.Source { return trace.NewSliceSource(sc.Trace, 512) }, sp)
	eng, err := sim.NewSharded(open, experiment.NewRouter(method), stW, stCfg, sim.ShardConfig{})
	if err != nil {
		return Item{Name: name, Detail: "streamed setup failed: " + err.Error()}
	}
	streamed := eng.Run().Summary
	if experiment.SummaryFingerprint(materialized) != experiment.SummaryFingerprint(streamed) {
		return Item{Name: name, Detail: fmt.Sprintf("materialized %+v, streamed %+v", materialized, streamed)}
	}
	return Item{Name: name, Pass: true,
		Detail: fmt.Sprintf("%d packets, 0 violations, materialized == streamed", materialized.Generated)}
}

// forkEquivalence warms one engine, snapshots it, and checks that forked
// seeded runs match fresh full runs bit for bit.
func forkEquivalence(sc *experiment.Scenario, method string, rate float64, seeds int) Item {
	name := sc.Name + "/" + method + ": fork-equivalence"
	cfg := sc.Config(1)
	eng := sim.New(sc.Trace, experiment.NewRouter(method), nil, cfg)
	eng.RunWarmup()
	snap, err := eng.Snapshot()
	if err != nil {
		return Item{Name: name, Detail: "snapshot failed: " + err.Error()}
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		_, w := sc.Setup(seed, rate, 0)
		forked := sim.Fork(snap, w, seed).Run().Summary
		fresh := experiment.Run{Scenario: sc, Router: routerFor(method), Rate: rate, Seed: seed}.Execute()
		if experiment.SummaryFingerprint(forked) != experiment.SummaryFingerprint(fresh) {
			return Item{Name: name, Detail: fmt.Sprintf("seed %d: forked %+v, fresh %+v", seed, forked, fresh)}
		}
	}
	return Item{Name: name, Pass: true, Detail: fmt.Sprintf("%d seeds bit-identical to fresh runs", seeds)}
}
