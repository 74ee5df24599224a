package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/disrupt"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The disrupted golden corpus extends the steady-state corpus with the
// "storm" preset — every disruption family at once — applied to each Tiny
// scenario. The entries pin the same contract: the materialized perturbed
// trace and the disrupt-wrapped stream are bit-identical at every epoch
// length, now with outage clipping, churn flushes, drift remaps,
// link-fault drops, and flash-crowd surges all in play. A chunk boundary
// landing on a disruption edge, a mis-ordered churn flush, or a surge
// drawn from a different RNG stream all show up as corpus diffs.

func disruptedGoldenPath(scenario string) string {
	return filepath.Join("testdata", "golden", scenario+"-disrupted.json")
}

// disruptedSpec compiles the storm preset for one scenario's dimensions.
func disruptedSpec(t *testing.T, sc *Scenario) *disrupt.Spec {
	t.Helper()
	sp, err := disrupt.Preset("storm", sc.Trace.NumNodes, sc.Trace.NumLandmarks, 0, sc.Trace.Duration())
	if err != nil {
		t.Fatal(err)
	}
	return &sp
}

// disruptedRun executes one method on the materialized storm-perturbed
// scenario trace.
func disruptedRun(t *testing.T, sc *Scenario, method string) metrics.Summary {
	t.Helper()
	sp := disruptedSpec(t, sc)
	tr, err := disrupt.Perturb(sc.Trace, sp)
	if err != nil {
		t.Fatal(err)
	}
	cfg, w := sc.Setup(1, 0, 0)
	sp.Apply(&cfg, w)
	return sim.New(tr, NewRouter(method), w, cfg).Run().Summary
}

// disruptedStreamedRun replays the same run over a stream, the disruption
// applied as a source wrapper.
func disruptedStreamedRun(t *testing.T, sc *Scenario, method string, sh sim.ShardConfig) metrics.Summary {
	t.Helper()
	sp := disruptedSpec(t, sc)
	cfg, w := sc.Setup(1, 0, 0)
	sp.Apply(&cfg, w)
	open := disrupt.Wrap(func() trace.Source { return trace.NewSliceSource(sc.Trace, 512) }, sp)
	s, err := sim.NewSharded(open, NewRouter(method), w, cfg, sh)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run().Summary
}

// TestDisruptedGoldenRuns pins every method × Tiny scenario under the
// storm disruption, then replays each entry over the wrapped stream at
// three epoch lengths (250 s, the default, one longer than the trace) —
// all must reproduce the materialized run's fingerprint exactly.
func TestDisruptedGoldenRuns(t *testing.T) {
	for _, sc := range BothScenarios(Tiny) {
		t.Run(sc.Name, func(t *testing.T) {
			got := make(map[string]metrics.Summary, len(MethodNames))
			for _, m := range MethodNames {
				got[m] = disruptedRun(t, sc, m)
			}
			path := disruptedGoldenPath(sc.Name)
			if *updateGolden {
				blob, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
			} else {
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with scripts/golden.sh)", err)
				}
				want := map[string]metrics.Summary{}
				if err := json.Unmarshal(blob, &want); err != nil {
					t.Fatal(err)
				}
				if len(want) != len(MethodNames) {
					t.Fatalf("corpus has %d methods, want %d", len(want), len(MethodNames))
				}
				for _, m := range MethodNames {
					if got[m] != want[m] {
						t.Errorf("%s: disrupted run drifted from corpus:\ngot  %+v\nwant %+v", m, got[m], want[m])
					}
				}
			}
			// Stream equivalence holds against the freshly computed entries
			// whether or not the corpus is being rewritten.
			for _, m := range MethodNames {
				for _, epoch := range []trace.Time{250, 0, sc.Trace.Duration() + 1} {
					if sum := disruptedStreamedRun(t, sc, m, sim.ShardConfig{Epoch: epoch}); sum != got[m] {
						t.Errorf("%s/epoch %d: streamed run drifted from materialized:\ngot  %+v\nwant %+v",
							m, epoch, sum, got[m])
					}
				}
			}
		})
	}
}
