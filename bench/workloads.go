package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// A workload builds one pass's inputs from the seed (set-up) and returns
// the measured work, which reports the fingerprint of its output. A nil
// tracer means an untraced pass.
type workload interface {
	setup(seed int64, t *tracer) (work func() (string, error), err error)
}

// workloadDef names a workload at its benchmark size and at the minimum
// size the self-tests run.
type workloadDef struct {
	name, why   string
	full, small workload
}

var workloads = []workloadDef{
	{
		name:  "scale-steady",
		why:   "4x DART on the sharded engine with DTN-FLOW: stream fill, shard assembly, apply and router table upkeep",
		full:  scaleSteady{mult: 4, rate: 500},
		small: scaleSteady{mult: 1, rate: 50},
	},
	{
		name:  "overload-lb",
		why:   "Tiny DART with DTN-FLOW load balancing on the classic engine: station backlog rescans dominate",
		full:  overloadLB{rate: 100, runs: 12},
		small: overloadLB{rate: 50, runs: 1},
	},
	{
		name:  "oracle-bound",
		why:   "1x DART solved offline by the contact-graph oracle: graph build, relaxed bound and committed schedule",
		full:  oracleBound{rate: 100},
		small: oracleBound{rate: 5},
	},
	{
		name:  "paper-sweeps",
		why:   "Figs. 11-14 sweeps at Tiny scale, six methods, five seeds, warm-state forked: the only baseline and fork path",
		full:  paperSweeps{seeds: 5, memory: []float64{600, 900, 1200, 1500}, rates: []float64{50, 200, 350, 500}},
		small: paperSweeps{seeds: 2, memory: []float64{600}, rates: []float64{50}},
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives the i-th of k simulation seeds from the benchmark
// seed; seed 1 gives 1..k, the seeds the experiment suite itself uses.
func subSeed(seed int64, k, i int) int64 { return (seed-1)*int64(k) + int64(i) + 1 }

// conserved checks packet accounting: every generated packet is
// delivered or dropped (in-flight packets drop at the end of the run).
func conserved(c *metrics.Collector) error {
	dropped := 0
	for _, n := range c.Dropped {
		dropped += n
	}
	if c.Generated == 0 || c.Delivered+dropped != c.Generated {
		return fmt.Errorf("packet accounting: generated %d, delivered %d, dropped %d", c.Generated, c.Delivered, dropped)
	}
	return nil
}

// scaleSteady runs DTN-FLOW over a streamed DART population on the
// sharded engine, called directly (not through ScaleSpec.RunSharded,
// whose peak-heap poller stops the world 20 times a second).
type scaleSteady struct {
	mult int
	rate float64
}

func (w scaleSteady) setup(seed int64, t *tracer) (func() (string, error), error) {
	sp := experiment.ScaleSpec{Scenario: "DART", Mult: w.mult, Rate: w.rate, Seed: seed}
	open, err := sp.Open()
	if err != nil {
		return nil, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	wl, err := sp.Workload()
	if err != nil {
		return nil, err
	}
	cfg.Probe = t.probe()
	router := t.router("DTN-FLOW", newRouter("DTN-FLOW"))()
	t0 := time.Now()
	s, err := sim.NewSharded(t.source(open), router, wl, cfg, sim.ShardConfig{})
	if err != nil {
		return nil, err
	}
	t.since("sim.new_s", t0)
	return func() (string, error) {
		var d0 time.Duration
		var c0, v0 int64
		if t != nil {
			// NewSharded may drain a span-scan stream; only the run's own
			// stream counts toward the synth layer.
			d0, c0, v0 = t.synthTotals()
		}
		t0 := time.Now()
		res := s.Run()
		if t != nil {
			t.since("sim.run_s", t0)
			d, c, v := t.synthTotals()
			t.add("synth.next_s", (d - d0).Seconds())
			t.add("synth.next_calls", float64(c-c0))
			t.add("synth.visits", float64(v-v0))
			st := s.Stats()
			t.add("sim.epochs", float64(st.Epochs))
			t.add("sim.events", float64(st.Events))
		}
		if err := conserved(res.Raw); err != nil {
			return "", err
		}
		return experiment.SummaryFingerprint(res.Summary), nil
	}, nil
}

// overloadLB is the Table VIII load-balancing run: DTN-FLOW with
// core.Config.LoadBalance on Tiny DART, executed as experiment.Run on the
// classic engine through experiment.Parallel, as the table harness runs
// it. A pass runs twelve seeds, because the cost of one seed's run varies
// by about a sixth from seed to seed.
type overloadLB struct {
	rate float64
	runs int
}

func (w overloadLB) setup(seed int64, t *tracer) (func() (string, error), error) {
	sc := tinyScenario("DART")
	runs := make([]experiment.Run, w.runs)
	for i := range runs {
		runs[i] = experiment.Run{
			Scenario: sc,
			Router:   t.router("DTN-FLOW", balancedFlow),
			Rate:     w.rate,
			Seed:     subSeed(seed, w.runs, i),
			Probe:    t.probe(),
		}
	}
	return func() (string, error) {
		sums := experiment.Parallel(runs, 0)
		for _, s := range sums {
			if s.Generated == 0 || s.Delivered > s.Generated {
				return "", fmt.Errorf("seed run: generated %d, delivered %d", s.Generated, s.Delivered)
			}
		}
		return experiment.SummaryFingerprint(sums...), nil
	}, nil
}

func balancedFlow() sim.Router {
	cfg := core.DefaultConfig()
	cfg.LoadBalance = true
	return core.New(cfg)
}

// oracleBound solves the 1x DART scale scenario offline, as OracleFor
// solves a run: contact-graph build, relaxed bound and the committed
// schedule, over the engine-identical packet schedule.
type oracleBound struct{ rate float64 }

// oracleAnswer is the part of an oracle result a pass is checked on.
type oracleAnswer struct {
	Packets            int     `json:"packets"`
	Deliverable        int     `json:"deliverable"`
	MeanDelay          float64 `json:"mean_delay"`
	CommittedDelivered int     `json:"committed_delivered"`
}

func (w oracleBound) setup(seed int64, t *tracer) (func() (string, error), error) {
	sp := experiment.ScaleSpec{Scenario: "DART", Mult: 1, Rate: w.rate, Seed: seed}
	open, err := sp.Open()
	if err != nil {
		return nil, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	wl, err := sp.Workload()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	tr, err := trace.Materialize(open())
	if err != nil {
		return nil, err
	}
	t.since("trace.materialize_s", t0)
	pkts := new(experiment.Scenario).OraclePackets(cfg, wl, tr)
	ocfg := oracle.ConfigFrom(cfg)
	return func() (string, error) {
		t0 := time.Now()
		g := oracle.Build(tr, ocfg, ocfg.Workers)
		t.since("oracle.build_s", t0)
		t1 := time.Now()
		res := oracle.Solve(g, ocfg, pkts)
		full := time.Since(t1)
		ans := oracleAnswer{len(pkts), res.Deliverable, res.MeanDelay, res.CommittedDelivered}
		if ans.Packets == 0 || ans.CommittedDelivered > ans.Deliverable || ans.Deliverable > ans.Packets {
			return "", fmt.Errorf("oracle bounds out of order: %+v", ans)
		}
		if t != nil {
			// A relaxed-only solve beside the full one splits the relaxed
			// search from the committed schedule. It is not part of the
			// untraced work, so it leaves the traced wall.
			rcfg := ocfg
			rcfg.SkipCommitted = true
			t2 := time.Now()
			rel := oracle.Solve(g, rcfg, pkts)
			relaxed := time.Since(t2)
			t.exclude(relaxed)
			if rel.Deliverable != res.Deliverable || rel.MeanDelay != res.MeanDelay {
				return "", fmt.Errorf("relaxed-only solve disagrees: %d/%v vs %d/%v",
					rel.Deliverable, rel.MeanDelay, res.Deliverable, res.MeanDelay)
			}
			t.add("oracle.relaxed_s", relaxed.Seconds())
			t.add("oracle.commit_s", (full - relaxed).Seconds())
			t.add("oracle.edges", float64(g.NumEdges()))
			t.add("oracle.packets", float64(len(pkts)))
			t.add("oracle.deliverable", float64(res.Deliverable))
			t.add("oracle.relaxed_us_per_packet", relaxed.Seconds()*1e6/float64(len(pkts)))
		}
		return experiment.FingerprintJSON(ans)
	}, nil
}

// paperSweeps runs the memory (Figs. 11-12) and rate (Figs. 13-14)
// sweeps at Tiny scale through experiment.Sweep, with the benchmark's
// own router factory and seeds.
type paperSweeps struct {
	seeds         int
	memory, rates []float64
}

func (w paperSweeps) setup(seed int64, t *tracer) (func() (string, error), error) {
	scs := []*experiment.Scenario{tinyScenario("DART"), tinyScenario("DNET")}
	opt := experiment.Options{Seeds: w.seeds}
	run := func(sc *experiment.Scenario, m string, s int64) experiment.Run {
		return experiment.Run{
			Scenario: sc,
			Router:   t.router(m, newRouter(m)),
			Seed:     subSeed(seed, w.seeds, int(s-1)),
		}
	}
	return func() (string, error) {
		var points [][]experiment.SweepPoint
		t0 := time.Now()
		for _, sc := range scs {
			points = append(points, experiment.Sweep(experiment.MethodNames, w.memory, opt,
				func(m string, kb float64, s int64) experiment.Run {
					r := run(sc, m, s)
					r.Tweak = func(c *sim.Config) { c.NodeMemory = sc.Memory(kb) }
					return r
				}))
		}
		t.since("experiment.sweep_memory_s", t0)
		t1 := time.Now()
		for _, sc := range scs {
			points = append(points, experiment.Sweep(experiment.MethodNames, w.rates, opt,
				func(m string, rate float64, s int64) experiment.Run {
					r := run(sc, m, s)
					r.Rate = rate
					return r
				}))
		}
		t.since("experiment.sweep_rate_s", t1)
		if t != nil {
			cells := len(scs) * len(experiment.MethodNames) * (len(w.memory) + len(w.rates))
			if forks := t.clones(); w.seeds >= 2 && forks != cells*w.seeds {
				return "", fmt.Errorf("traced sweep forked %d runs, want %d", forks, cells*w.seeds)
			}
		}
		return experiment.FingerprintJSON(points)
	}, nil
}

func newRouter(method string) func() sim.Router {
	return func() sim.Router { return experiment.NewRouter(method) }
}

// tinyScenario builds a fresh copy of the experiment suite's Tiny
// scenario: the settings are copied from the memoized scenario and the
// trace is generated again from the same generator configuration, so
// every set-up pays for trace generation as a fresh process would.
func tinyScenario(kind string) *experiment.Scenario {
	var sc experiment.Scenario
	switch kind {
	case "DART":
		sc = *experiment.DARTScenario(experiment.Tiny)
		cfg := synth.DefaultDART()
		cfg.Nodes, cfg.Landmarks, cfg.Days, cfg.Communities = 48, 24, 28, 6
		sc.Trace = synth.DART(cfg)
	case "DNET":
		sc = *experiment.DNETScenario(experiment.Tiny)
		cfg := synth.DefaultDNET()
		cfg.Buses, cfg.Landmarks, cfg.Days, cfg.Routes, cfg.NoiseProb = 12, 10, 10, 4, 0.1
		sc.Trace = synth.DNET(cfg)
	default:
		panic("tinyScenario: unknown kind " + kind)
	}
	return &sc
}
