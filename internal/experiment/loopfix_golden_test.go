package experiment

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The loop-fix golden corpus pins DTN-FLOW with loop detection and
// correction (Section IV-E.2) under the Table VII fault injection: the
// W-2 and W-3 configurations, two or three injected loops, on both Tiny
// scenarios at seed 1 and the scenario's default rate. It is the only
// corpus entry that records packet landmark paths and runs DetectLoop
// and the correction rounds on them.

// loopFixCell is the Table VII W-x cell on sc: DTN-FLOW with loop fixing
// and x injected loops.
func loopFixCell(sc *Scenario, x int) Cell {
	c := flowCell(Options{Scale: Tiny}, sc, func(c *core.Config) { c.LoopFix = true })
	c.Loops = x
	return c
}

// TestLoopFixGoldenRuns compares the W-2 and W-3 cells on each Tiny
// scenario against the checked-in corpus, then replays each cell's run
// through chunked streams at three epoch lengths.
func TestLoopFixGoldenRuns(t *testing.T) {
	type entry struct {
		sc    *Scenario
		loops int
		key   string
	}
	var (
		entries []entry
		cells   []Cell
	)
	for _, sc := range BothScenarios(Tiny) {
		for _, x := range []int{2, 3} { // the W-2 and W-3 columns
			entries = append(entries, entry{sc, x, fmt.Sprintf("%s/W-%d", sc.Name, x)})
			cells = append(cells, loopFixCell(sc, x))
		}
	}
	sums := cellSummaries(Options{}, cells)
	got := make(map[string]metrics.Summary, len(entries))
	for i, e := range entries {
		got[e.key] = sums[i]
	}
	want := summaryCorpus(t, "LOOPFIX", got)
	if want == nil {
		return
	}
	for _, e := range entries {
		if got[e.key] != want[e.key] {
			t.Errorf("%s: run drifted from corpus:\ngot  %+v\nwant %+v", e.key, got[e.key], want[e.key])
		}
		for _, epoch := range []trace.Time{250, 0, e.sc.Trace.Duration() + 1} {
			r := loopFixCell(e.sc, e.loops).run(e.sc)
			router := r.Router()
			cfg, w := e.sc.Setup(1, 0, 0)
			s, err := sim.NewSharded(
				func() trace.Source { return trace.NewSliceSource(e.sc.Trace, 512) },
				router, w, cfg, sim.ShardConfig{Epoch: epoch},
			)
			if err != nil {
				t.Fatal(err)
			}
			r.Setup(s, router)
			if sum := s.Run().Summary; sum != want[e.key] {
				t.Errorf("%s: streamed run (epoch %d) drifted from corpus:\ngot  %+v\nwant %+v", e.key, epoch, sum, want[e.key])
			}
		}
	}
}
