package experiment

import (
	"reflect"
	"runtime"
	"testing"
)

// determinismRuns builds a small but representative run set: two traces,
// three methods (the core router plus one control-plane-light and one
// score-based baseline), two seeds each.
func determinismRuns() []Run {
	var runs []Run
	for _, sc := range []*Scenario{DARTScenario(Tiny), DNETScenario(Tiny)} {
		for _, m := range []string{"DTN-FLOW", "PROPHET", "SimBet"} {
			for seed := int64(1); seed <= 2; seed++ {
				runs = append(runs, Run{Scenario: sc, Router: routerFactory(m), Seed: seed})
			}
		}
	}
	return runs
}

// TestParallelDeterminism checks that the worker count never changes
// results: a sweep executed serially and one executed with full
// parallelism must produce identical []metrics.Summary. Each run owns its
// engine, router and seeded RNG; shared state is limited to the memoized
// trace artifacts, which are read-only after construction. The comparison
// is the canonical SummaryFingerprint — the same reduction the validation
// battery's neutrality checks use — with a DeepEqual walk only to
// localize a diagnosis.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	serial := Parallel(determinismRuns(), 1)
	parallel := Parallel(determinismRuns(), runtime.GOMAXPROCS(0))
	if SummaryFingerprint(serial...) != SummaryFingerprint(parallel...) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("run %d diverged:\nworkers=1: %+v\nworkers=N: %+v", i, serial[i], parallel[i])
			}
		}
	}
}

// TestCachedScenarioDeterminism checks that the process-wide scenario
// cache is invisible to results: a simulation on the cached scenario must
// produce a byte-identical summary to one on a freshly built (uncached)
// scenario, and the cache must return the same instance every call.
func TestCachedScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	if DARTScenario(Tiny) != DARTScenario(Tiny) {
		t.Error("DARTScenario(Tiny) returned distinct instances; cache broken")
	}
	for _, m := range []string{"DTN-FLOW", "PROPHET"} {
		cached := Run{Scenario: DARTScenario(Tiny), Router: routerFactory(m), Seed: 1}.Execute()
		fresh := Run{Scenario: buildScenario("DART", Tiny, 0), Router: routerFactory(m), Seed: 1}.Execute()
		if SummaryFingerprint(cached) != SummaryFingerprint(fresh) {
			t.Errorf("%s: cached vs uncached scenario diverged:\ncached: %+v\nfresh:  %+v", m, cached, fresh)
		}
	}
}
