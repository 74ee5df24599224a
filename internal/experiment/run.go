package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
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

// Run is one simulation request: a scenario, a router factory, a workload,
// and optional config tweaks applied after defaults.
type Run struct {
	Scenario *Scenario
	Router   func() sim.Router
	Rate     float64
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
	// injection, hooks). A non-nil Setup keeps a Sweep cell on fresh
	// per-seed runs, since the hook needs each run's own engine.
	Setup func(*sim.Engine, sim.Router)
}

// Execute performs one run and returns its summary.
func (r Run) Execute() metrics.Summary {
	cfg := r.Scenario.Config(r.Seed)
	cfg.Probe = r.Probe
	cfg.Check = r.Check
	if r.Tweak != nil {
		r.Tweak(&cfg)
	}
	rate := r.Rate
	if rate <= 0 {
		rate = r.Scenario.RateDef
	}
	router := r.Router()
	eng := sim.New(r.Scenario.Trace, router, r.Scenario.Workload(rate), cfg)
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

// SeededAverage runs the same configuration across opt.Seeds seeds and
// returns the per-metric means and 95% CI half-widths.
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

// sweepCell is one (x, method) cell of a sweep: the per-seed runs of one
// data point, which share everything except the workload seed. When the
// cell is forkable, its warmup is simulated once and every seed's measured
// run forks from the shared end-of-warmup snapshot.
type sweepCell struct {
	runs []Run // seeds runs, identical up to Seed
	snap *sim.Snapshot
	wl   *sim.Workload
}

// warm simulates the cell's warmup once (no workload — packets only exist
// from the warmup boundary onward) and snapshots the engine. It leaves the
// cell on the fresh path when the cell cannot be forked: a per-run probe,
// checker or setup hook binds a run to its own engine, and Snapshot itself
// rejects routers without Cloner support or warm state that is not safely
// clonable (pending protocol timers).
func (c *sweepCell) warm() {
	r := c.runs[0]
	if r.Probe != nil || r.Check != nil || r.Setup != nil {
		return
	}
	cfg := r.Scenario.Config(r.Seed)
	if r.Tweak != nil {
		r.Tweak(&cfg)
	}
	if cfg.Probe != nil || cfg.Check != nil {
		return
	}
	eng := sim.New(r.Scenario.Trace, r.Router(), nil, cfg)
	eng.RunWarmup()
	snap, err := eng.Snapshot()
	if err != nil {
		return
	}
	rate := r.Rate
	if rate <= 0 {
		rate = r.Scenario.RateDef
	}
	c.snap = snap
	c.wl = r.Scenario.Workload(rate)
}

// execute performs the cell's i-th seeded run: a fork of the shared
// snapshot when the cell is warmed, a full fresh run otherwise. Both paths
// produce bit-identical summaries (see sim.Fork).
func (c *sweepCell) execute(i int) metrics.Summary {
	if c.snap == nil {
		return c.runs[i].Execute()
	}
	return sim.Fork(c.snap, c.wl, c.runs[i].Seed).Run().Summary
}

// Sweep runs methods × xs × seeds in parallel. build returns the Run for
// (method, x, seed); everything in the returned Run except the workload
// seed must depend only on (method, x) — the contract that makes seeds
// averageable, and that warm-state forking relies on to share one warmup
// per (x, method) cell across all seeds. Multi-seed sweeps fork each
// cell's measured runs from a single end-of-warmup snapshot; results are
// bit-identical to fresh per-seed runs. A Run with a Setup hook (even a
// no-op one) keeps its cell on the fresh path.
func Sweep(methods []string, xs []float64, opt Options, build func(method string, x float64, seed int64) Run) []SweepPoint {
	seeds := opt.Seeds
	if seeds < 1 {
		seeds = 1
	}
	cells := make([]sweepCell, 0, len(xs)*len(methods))
	for _, x := range xs {
		for _, m := range methods {
			c := sweepCell{runs: make([]Run, seeds)}
			for s := 0; s < seeds; s++ {
				c.runs[s] = build(m, x, int64(s+1))
			}
			cells = append(cells, c)
		}
	}
	// Phase 1: warm each cell once. With a single seed a fork saves
	// nothing over a fresh run, so the whole phase is skipped.
	if seeds >= 2 {
		ParallelFor(len(cells), opt.Workers, func(ci int) { cells[ci].warm() })
	}
	// Phase 2: every measured run, flat across cells so late cells don't
	// wait on slow ones.
	sums := make([]metrics.Summary, len(cells)*seeds)
	ParallelFor(len(sums), opt.Workers, func(i int) {
		sums[i] = cells[i/seeds].execute(i % seeds)
	})
	points := make([]SweepPoint, len(xs))
	i := 0
	for xi, x := range xs {
		points[xi].X = x
		for range methods {
			points[xi].Results = append(points[xi].Results, Average(sums[i:i+seeds]))
			i += seeds
		}
	}
	return points
}

// routerFactory returns a factory for NewRouter(name).
func routerFactory(name string) func() sim.Router {
	return func() sim.Router { return NewRouter(name) }
}
