package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/oracle"
)

// The oracle corpus pins the offline yardstick the same way the method
// corpus pins the engines: exact fixed-seed OracleSummary entries for
// both Tiny scenarios, steady-state and storm-disrupted. Any change to
// graph construction, the label-setting search, or the commit order
// shows up as a corpus diff to regenerate deliberately (go test
// ./internal/experiment -run TestOracleGolden -update-golden), in the
// same commit that bumps oracle.Version so stored oracle cells miss.

// oracleGoldenEntries computes the corpus: steady + storm per scenario.
func oracleGoldenEntries(t *testing.T, workers int) map[string]OracleSummary {
	t.Helper()
	out := make(map[string]OracleSummary, 4)
	for _, sc := range BothScenarios(Tiny) {
		_, steady := sc.OracleFor(1, 0, workers)
		out[sc.Name] = steady
		_, storm, err := sc.OracleDisrupted(1, 0, workers, "storm")
		if err != nil {
			t.Fatalf("%s: storm oracle: %v", sc.Name, err)
		}
		out[sc.Name+"-storm"] = storm
	}
	return out
}

func TestOracleGolden(t *testing.T) {
	got := oracleGoldenEntries(t, 4)
	path := goldenPath("ORACLE")
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
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	want := map[string]OracleSummary{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d entries, want %d", len(want), len(got))
	}
	// OracleSummary is ints and float64s; encoding/json round-trips
	// float64 exactly, so == is an exact compare per entry.
	for name, g := range got {
		if w, ok := want[name]; !ok || g != w {
			t.Errorf("%s: oracle drifted from corpus:\ngot  %+v\nwant %+v", name, g, want[name])
		}
	}
}

// TestOracleGoldenWorkerDeterminism recomputes the whole corpus at
// several worker counts — the parallel graph build and solve must give
// byte-identical summaries regardless of parallelism.
func TestOracleGoldenWorkerDeterminism(t *testing.T) {
	want := oracleGoldenEntries(t, 1)
	for _, workers := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		got := oracleGoldenEntries(t, workers)
		for name, g := range got {
			if g != want[name] {
				t.Errorf("workers=%d %s: diverged from single-worker:\ngot  %+v\nwant %+v",
					workers, name, g, want[name])
			}
		}
	}
}

// TestTinyGraphFingerprints pins the contact graphs of both Tiny
// scenarios, as the oracle cells build them, to the fingerprints of the
// comparison-sorted build the bucket sort replaced, for several worker
// counts.
func TestTinyGraphFingerprints(t *testing.T) {
	want := map[string]uint64{"DART": 0x6a8ab55937a33b35, "DNET": 0xb4c3a29025a6756d}
	for _, sc := range BothScenarios(Tiny) {
		for _, workers := range []int{1, 2, 8} {
			g := oracle.Build(sc.Trace, oracle.ConfigFrom(sc.Config(1)), workers)
			if got := g.Fingerprint(); got != want[sc.Name] {
				t.Errorf("%s workers=%d: graph fingerprint %#x, want %#x", sc.Name, workers, got, want[sc.Name])
			}
		}
	}
}
