package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The golden-run corpus pins the end-to-end numeric behaviour of the whole
// stack — generators, simulator, every router — as exact fixed-seed
// metrics.Summary fingerprints. Summary is a comparable struct of ints and
// float64s, and encoding/json round-trips float64 exactly, so the
// comparison is == on every field: any change to a single random draw, a
// tie-break, or an accounting rule shows up as a corpus diff that must be
// regenerated deliberately (scripts/golden.sh) and reviewed, never
// absorbed silently.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current build")

func goldenPath(scenario string) string {
	return filepath.Join("testdata", "golden", scenario+".json")
}

// goldenRuns computes the corpus entries for one Tiny scenario: every
// method at the scenario's default rate, seed 1 — the same configuration
// Run.Execute gives the paper experiments.
func goldenRuns(sc *Scenario) map[string]metrics.Summary {
	runs := make([]Run, len(MethodNames))
	for i, m := range MethodNames {
		runs[i] = Run{Scenario: sc, Router: routerFactory(m), Seed: 1}
	}
	sums := Parallel(runs, 0)
	out := make(map[string]metrics.Summary, len(sums))
	for i, m := range MethodNames {
		out[m] = sums[i]
	}
	return out
}

// streamedGoldenRuns replays one corpus entry through NewSharded over a
// view of the scenario trace chunked 512 visits at a time, once per epoch
// row: shorter than most visits, the default, and one epoch longer than
// the trace.
func streamedGoldenRuns(t *testing.T, sc *Scenario, method string) map[trace.Time]metrics.Summary {
	t.Helper()
	out := map[trace.Time]metrics.Summary{}
	for _, epoch := range []trace.Time{250, 0, sc.Trace.Duration() + 1} {
		cfg, w := sc.Setup(1, 0, 0)
		s, err := sim.NewSharded(
			func() trace.Source { return trace.NewSliceSource(sc.Trace, 512) },
			NewRouter(method), w, cfg, sim.ShardConfig{Epoch: epoch},
		)
		if err != nil {
			t.Fatal(err)
		}
		out[epoch] = s.Run().Summary
	}
	return out
}

// loadGolden reads the checked-in corpus entry for one scenario.
func loadGolden(t *testing.T, sc *Scenario) map[string]metrics.Summary {
	t.Helper()
	blob, err := os.ReadFile(goldenPath(sc.Name))
	if err != nil {
		t.Fatalf("%v (regenerate with scripts/golden.sh)", err)
	}
	want := map[string]metrics.Summary{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// summaryCorpus rewrites the named corpus file from got under
// -update-golden and returns nil; otherwise it returns the checked-in
// entries, which must be as many as got's.
func summaryCorpus(t *testing.T, name string, got map[string]metrics.Summary) map[string]metrics.Summary {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return nil
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with scripts/golden.sh)", err)
	}
	want := map[string]metrics.Summary{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s corpus has %d entries, want %d", name, len(want), len(got))
	}
	return want
}

// TestGoldenRuns compares every method × Tiny scenario against the checked
// in corpus, through Run.Execute and again through chunked streams at
// three epoch lengths — epochs and chunking never change results, so the
// replays pass without regeneration.
func TestGoldenRuns(t *testing.T) {
	for _, sc := range BothScenarios(Tiny) {
		t.Run(sc.Name, func(t *testing.T) {
			got := goldenRuns(sc)
			path := goldenPath(sc.Name)
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
				return
			}
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
			// Headline compare: one canonical fingerprint over the whole
			// corpus entry — the same helper fleet store keys are built
			// on — then a per-method walk to localize any drift.
			gotFP, err := FingerprintJSON(got)
			if err != nil {
				t.Fatal(err)
			}
			wantFP, err := FingerprintJSON(want)
			if err != nil {
				t.Fatal(err)
			}
			if gotFP != wantFP {
				drift := false
				for _, m := range MethodNames {
					if got[m] != want[m] {
						drift = true
						t.Errorf("%s: run drifted from corpus:\ngot  %+v\nwant %+v", m, got[m], want[m])
					}
				}
				if !drift {
					t.Errorf("corpus fingerprint drifted (%s vs %s) outside the method set", gotFP, wantFP)
				}
			}
			for _, m := range MethodNames {
				for epoch, sum := range streamedGoldenRuns(t, sc, m) {
					if sum != want[m] {
						t.Errorf("%s: streamed run (epoch %d) drifted from corpus:\ngot  %+v\nwant %+v", m, epoch, sum, want[m])
					}
				}
			}
		})
	}
}
