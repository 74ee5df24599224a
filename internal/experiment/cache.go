package experiment

import "sync"

// Scenario construction dominated the cost of the smaller experiment
// suites: every experiment (and every benchmark iteration) called
// DARTScenario / DNETScenario / the campus scenario, and each call regenerated
// the full synthetic trace from scratch. The generators are deterministic
// — same kind and scale always yield byte-identical traces — so the
// scenarios are memoized process-wide, keyed by (trace kind, scale), and
// every caller shares one Scenario and one trace.Trace.
//
// Contract: cached Scenarios and their traces are shared across
// experiments and across concurrently running simulations, and must be
// treated as immutable after construction. Code that needs a private
// variant builds its own Scenario (as the landmark-count ablation does)
// or copies the struct; the sim.Config and workload Scenario.Setup
// returns are copies and free to tweak.

// scenarioKey identifies one cached scenario.
type scenarioKey struct {
	kind  string
	scale Scale
}

// scenarioEntry guards one lazily built scenario.
type scenarioEntry struct {
	once sync.Once
	sc   *Scenario
}

var scenarioCache sync.Map // scenarioKey -> *scenarioEntry

// cachedScenario returns the memoized scenario for (kind, scale),
// building it at most once per process. Concurrent callers for the same
// key block on the sync.Once until the build completes.
func cachedScenario(kind string, scale Scale) *Scenario {
	v, _ := scenarioCache.LoadOrStore(scenarioKey{kind, scale}, &scenarioEntry{})
	e := v.(*scenarioEntry)
	e.once.Do(func() { e.sc = buildScenario(kind, scale, 0) })
	return e.sc
}
