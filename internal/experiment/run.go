package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Methods in the paper's comparison order.
var MethodNames = []string{"DTN-FLOW", "PER", "SimBet", "PROPHET", "GeoComm", "PGR"}

// NewRouter builds a fresh router by method name. DTN-FLOW uses the
// headline configuration (extensions off, per Section V-A).
func NewRouter(name string) sim.Router {
	switch name {
	case "DTN-FLOW":
		return core.New(core.DefaultConfig())
	case "PER":
		return baselines.NewBase(baselines.NewPER())
	case "SimBet":
		return baselines.NewBase(baselines.NewSimBet())
	case "PROPHET":
		return baselines.NewBase(baselines.NewPROPHET())
	case "GeoComm":
		return baselines.NewBase(baselines.NewGeoComm())
	case "PGR":
		return baselines.NewBase(baselines.NewPGR())
	default:
		panic("experiment: unknown method " + name)
	}
}

// Run is one simulation request: a scenario, a router factory, the rate,
// memory label and seed Scenario.Setup turns into its configuration and
// workload, and optional config tweaks applied after them.
type Run struct {
	Scenario *Scenario
	Router   func() sim.Router
	Rate     float64
	Memory   float64
	Seed     int64
	Tweak    func(*sim.Config)
	// Probe, when non-nil, records telemetry for this run. Parallel
	// sweeps must give each run its own recorder (the recorder, like the
	// engine, is single-goroutine).
	Probe *telemetry.Probe
	// Check, when non-nil, attaches an invariant checker to this run.
	// Like the probe, a checker serves one run on one goroutine, so
	// parallel sweeps must build one per run.
	Check sim.Checker
	// Setup runs after engine construction but before Run (fault
	// injection, hooks). A non-nil Setup keeps a Sweep group on fresh
	// per-seed runs, since the hook needs each run's own engine.
	Setup func(*sim.Engine, sim.Router)
}

// setup returns the run's engine configuration and workload
// (Scenario.Setup), with the probe and checker attached and the tweak
// applied.
func (r Run) setup() (sim.Config, *sim.Workload) {
	cfg, w := r.Scenario.Setup(r.Seed, r.Rate, r.Memory)
	cfg.Probe = r.Probe
	cfg.Check = r.Check
	if r.Tweak != nil {
		r.Tweak(&cfg)
	}
	return cfg, w
}

// Execute performs one run and returns its summary.
func (r Run) Execute() metrics.Summary {
	router := r.Router()
	cfg, w := r.setup()
	eng := sim.New(r.Scenario.Trace, router, w, cfg)
	if r.Setup != nil {
		r.Setup(eng, router)
	}
	return eng.Run().Summary
}

// resolveWorkers resolves an Options.Workers value into the effective pool
// size for n items, at call time: <= 0 means GOMAXPROCS as it is now — a
// runtime.GOMAXPROCS change mid-process is honoured by the next sweep
// rather than pinned at package init — and the pool never exceeds n.
func resolveWorkers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ParallelFor runs fn(0..n-1) on a bounded pool of workers goroutines
// (<= 0 means GOMAXPROCS, see resolveWorkers), handing items out in index
// order, so callers that sort their work longest-first start the longest
// items first. A panicking item is recovered and recorded with its index
// and stack; the first panic is re-thrown once after the pool has
// drained, so one bad item can neither deadlock the feeder nor silently
// kill a worker while unrelated items are still in flight.
func ParallelFor(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	workers = resolveWorkers(n, workers)
	var (
		wg         sync.WaitGroup
		once       sync.Once
		firstPanic error
	)
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				func() {
					defer func() {
						if p := recover(); p != nil {
							stack := debug.Stack()
							once.Do(func() {
								firstPanic = fmt.Errorf("experiment: run %d panicked: %v\n%s", i, p, stack)
							})
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// Parallel executes the runs concurrently (each run owns its engine and
// RNG, so results are independent of scheduling) and returns the summaries
// in input order.
func Parallel(runs []Run, workers int) []metrics.Summary {
	out := make([]metrics.Summary, len(runs))
	ParallelFor(len(runs), workers, func(i int) {
		out[i] = runs[i].Execute()
	})
	return out
}

// Averaged holds the per-metric means and 95% CI half-widths of one
// configuration's runs across seeds (see Average).
type Averaged struct {
	Method                string
	Success, SuccessCI    float64
	Delay, DelayCI        float64 // seconds
	OverallDelay          float64
	Forwarding, TotalCost float64
}

// Average folds per-seed summaries into means with confidence intervals.
func Average(sums []metrics.Summary) Averaged {
	var a Averaged
	if len(sums) == 0 {
		return a
	}
	a.Method = sums[0].Method
	succ := make([]float64, len(sums))
	delay := make([]float64, len(sums))
	var over, fwd, tot float64
	for i, s := range sums {
		succ[i] = s.SuccessRate
		delay[i] = s.AvgDelay
		over += s.OverallDelay
		fwd += float64(s.Forwarding)
		tot += float64(s.TotalCost)
	}
	a.Success, a.SuccessCI = metrics.CI95(succ)
	a.Delay, a.DelayCI = metrics.CI95(delay)
	n := float64(len(sums))
	a.OverallDelay = over / n
	a.Forwarding = fwd / n
	a.TotalCost = tot / n
	return a
}

// SweepPoint is one x-value of a parameter sweep with the averaged result
// of every method.
type SweepPoint struct {
	X       float64
	Results []Averaged // aligned with the method list used
}

// seedGroup is the executor's unit: runs identical apart from the
// workload seed, such as the seeds of one (x, method) point of a sweep or
// the fleet cells that differ only in Seed. A warmed group simulates its
// warmup once and forks every run from the end-of-warmup snapshot.
type seedGroup struct {
	runs []Run
	cost float64 // dispatch rank: costlier groups start first
	snap *sim.Snapshot
}

// warm simulates the group's warmup once (no workload — packets only
// exist from the warmup boundary onward) into a copy of the first run's
// recorder and snapshots the engine. A group of one gains nothing from a
// fork; a Setup hook needs each run's own engine, and a checker would see
// the warmup twice once Snapshot refuses it. Snapshot itself refuses
// routers without Cloner support and pending protocol timers.
func (g *seedGroup) warm() {
	r := g.runs[0]
	if len(g.runs) < 2 || r.Setup != nil {
		return
	}
	cfg, _ := r.setup()
	if cfg.Check != nil {
		return
	}
	if cfg.Probe != nil {
		cfg.Probe = telemetry.NewProbe(cfg.Probe.Recorder().Clone())
	}
	eng := sim.New(r.Scenario.Trace, r.Router(), nil, cfg)
	eng.RunWarmup()
	if snap, err := eng.Snapshot(); err == nil {
		g.snap = snap
	}
}

// execute performs the group's i-th run: a fork of the shared snapshot
// when the group is warmed, a full fresh run otherwise. Both paths give
// bit-identical summaries and recorders (see sim.Fork).
func (g *seedGroup) execute(i int) metrics.Summary {
	r := g.runs[i]
	if g.snap == nil {
		return r.Execute()
	}
	cfg, w := r.setup()
	eng := sim.Fork(g.snap, w, r.Seed)
	sum := eng.Run().Summary
	if p := cfg.Probe; p != nil {
		*p.Recorder() = *eng.Context().Probe.Recorder()
	}
	return sum
}

// runGroups executes every run of every group on a pool of workers
// goroutines and calls done(g, i) after run i of group g, on the goroutine
// that ran it. Groups go to the pool costliest first, input index
// breaking ties: phase 1 warms each group, phase 2 runs every run, flat
// across groups so late groups do not wait on slow ones.
func runGroups(groups []seedGroup, workers int, done func(g, i int)) {
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return groups[order[a]].cost > groups[order[b]].cost })
	var jobs [][2]int
	for _, g := range order {
		for i := range groups[g].runs {
			jobs = append(jobs, [2]int{g, i})
		}
	}
	ParallelFor(len(order), workers, func(k int) { groups[order[k]].warm() })
	ParallelFor(len(jobs), workers, func(k int) { done(jobs[k][0], jobs[k][1]) })
}

// Sweep runs methods × xs × seeds in parallel. build returns the Run for
// (method, x, seed); everything in the returned Run except the workload
// seed must depend only on (method, x) — the contract that makes seeds
// averageable, and that warm-state forking relies on to share one warmup
// per (x, method) group across all seeds. Multi-seed sweeps fork each
// group's measured runs from a single end-of-warmup snapshot; summaries
// and probe recorders are bit-identical to fresh per-seed runs. A Run
// with a Setup hook (even a no-op one) or a checker keeps its group on
// the fresh path.
func Sweep(methods []string, xs []float64, opt Options, build func(method string, x float64, seed int64) Run) []SweepPoint {
	seeds := opt.Seeds
	if seeds < 1 {
		seeds = 1
	}
	groups := make([]seedGroup, 0, len(xs)*len(methods))
	for _, x := range xs {
		for _, m := range methods {
			g := seedGroup{runs: make([]Run, seeds)}
			for s := 0; s < seeds; s++ {
				g.runs[s] = build(m, x, int64(s+1))
			}
			groups = append(groups, g)
		}
	}
	sums := make([]metrics.Summary, len(groups)*seeds)
	runGroups(groups, opt.Workers, func(g, i int) {
		sums[g*seeds+i] = groups[g].execute(i)
	})
	points := make([]SweepPoint, len(xs))
	for xi, x := range xs {
		points[xi].X = x
		for g := xi * len(methods); g < (xi+1)*len(methods); g++ {
			points[xi].Results = append(points[xi].Results, Average(sums[g*seeds:(g+1)*seeds]))
		}
	}
	return points
}

// routerFactory returns a factory for NewRouter(name).
func routerFactory(name string) func() sim.Router {
	return func() sim.Router { return NewRouter(name) }
}
