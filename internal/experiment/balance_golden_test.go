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

// balanceCell is the Table VIII cell on sc: DTN-FLOW with load balancing.
func balanceCell(sc *Scenario) Cell {
	return flowCell(Options{Scale: Tiny}, sc, func(c *core.Config) { c.LoadBalance = true })
}

// TestBalanceGoldenRuns compares the load-balanced cell on each Tiny
// scenario against the checked-in corpus, then replays its run through
// chunked streams at three epoch lengths.
func TestBalanceGoldenRuns(t *testing.T) {
	scens := BothScenarios(Tiny)
	cells := make([]Cell, len(scens))
	for i, sc := range scens {
		cells[i] = balanceCell(sc)
	}
	sums := cellSummaries(Options{}, cells)
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
			cfg, w := sc.Setup(1, 0, 0)
			s, err := sim.NewSharded(
				func() trace.Source { return trace.NewSliceSource(sc.Trace, 512) },
				balanceCell(sc).Router(), w, cfg, sim.ShardConfig{Epoch: epoch},
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
