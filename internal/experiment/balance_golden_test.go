package experiment

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The balance golden corpus pins DTN-FLOW with load balancing (Section
// IV-E.3, the Table VIII configuration) on both Tiny scenarios at seed 1
// and the scenario's default rate. Load balancing is the one extension
// whose contact-time scheduling ping-pongs packets between the station
// and the contact node, so the entry guards the scheduler's cycle
// fast-forward as well as the overload decision itself.

// balancedRouter is the Table VIII router: DTN-FLOW with load balancing.
var balancedRouter = flowRouter(func(c *core.Config) { c.LoadBalance = true })

// TestBalanceGoldenRuns compares the load-balanced run on each Tiny
// scenario against the checked-in corpus through Run.Execute, then replays
// it through chunked streams at three epoch lengths.
func TestBalanceGoldenRuns(t *testing.T) {
	scens := BothScenarios(Tiny)
	runs := make([]Run, len(scens))
	for i, sc := range scens {
		runs[i] = Run{Scenario: sc, Router: balancedRouter, Seed: 1}
	}
	sums := Parallel(runs, 0)
	got := make(map[string]metrics.Summary, len(scens))
	for i, sc := range scens {
		got[sc.Name] = sums[i]
	}
	want := summaryCorpus(t, "BALANCE", got)
	if want == nil {
		return
	}
	for _, sc := range scens {
		if got[sc.Name] != want[sc.Name] {
			t.Errorf("%s: run drifted from corpus:\ngot  %+v\nwant %+v", sc.Name, got[sc.Name], want[sc.Name])
		}
		for _, epoch := range []trace.Time{250, 0, sc.Trace.Duration() + 1} {
			s, err := sim.NewSharded(
				func() trace.Source { return trace.NewSliceSource(sc.Trace, 512) },
				balancedRouter(), sc.Workload(sc.RateDef), sc.Config(1), sim.ShardConfig{Epoch: epoch},
			)
			if err != nil {
				t.Fatal(err)
			}
			if sum := s.Run().Summary; sum != want[sc.Name] {
				t.Errorf("%s: streamed run (epoch %d) drifted from corpus:\ngot  %+v\nwant %+v", sc.Name, epoch, sum, want[sc.Name])
			}
		}
	}
}
