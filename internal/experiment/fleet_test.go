package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func resultsFingerprint(t *testing.T, results []*CellResult) string {
	t.Helper()
	fp, err := FingerprintJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// smallCells is a cheap three-cell sweep for the cache and failure tests.
func smallCells() []Cell {
	return SweepCells([]string{"DNET"}, Tiny, []string{"DTN-FLOW", "PROPHET", "SimBet"}, 1, 0)
}

// poolSizes are the pool sizes the determinism tests sweep; 0 means
// GOMAXPROCS.
var poolSizes = []int{1, 2, 0}

// TestFleetGoldenByteMatch is the headline contract: a fleet run of the
// golden corpus cells, assembled per scenario, must byte-match the
// checked-in corpus files that the single-process TestGoldenRuns pins,
// for every pool size.
func TestFleetGoldenByteMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full golden corpus")
	}
	for _, workers := range poolSizes {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cells := GoldenCells()
			results, err := RunCells(cells, Options{Workers: workers, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			if hits, puts := store.Counts(); hits != 0 || puts != int64(len(cells)) || store.Len() != len(cells) {
				t.Errorf("%d served, %d executed, %d stored, want 0, %d and %d",
					hits, puts, store.Len(), len(cells), len(cells))
			}
			for scenario, got := range mergeByScenario(results) {
				blob, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				blob = append(blob, '\n')
				path := filepath.Join("testdata", "golden", scenario+".json")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with scripts/golden.sh)", err)
				}
				if !bytes.Equal(blob, want) {
					t.Errorf("%s: fleet corpus is not byte-identical to %s", scenario, path)
				}
			}
		})
	}
}

// TestFleetCacheHits runs the same sweep twice against one store: the
// second run must complete entirely from cache with byte-identical
// results. A third run with one added cell executes only that cell.
func TestFleetCacheHits(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := smallCells()

	// counts checks the store's running totals of served and executed
	// cells after a run.
	n := int64(len(cells))
	counts := func(run string, hits, puts int64) {
		t.Helper()
		if h, p := store.Counts(); h != hits || p != puts {
			t.Errorf("%s run: %d served / %d executed in total, want %d / %d", run, h, p, hits, puts)
		}
	}

	res1, err := RunCells(cells, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	counts("first", 0, n)

	res2, err := RunCells(cells, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	counts("second", n, n)
	if resultsFingerprint(t, res1) != resultsFingerprint(t, res2) {
		t.Error("cached results are not byte-identical to executed ones")
	}

	grown := append(cells, Cell{Scenario: "DNET", Scale: "tiny", Method: "PER", Seed: 1})
	res3, err := RunCells(grown, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	counts("grown", 2*n, n+1)
	if resultsFingerprint(t, res3[:len(cells)]) != resultsFingerprint(t, res1) {
		t.Error("adding a cell changed the results of the cached ones")
	}
}

// TestFleetMalformedCellFailsFast places malformed cells after valid
// ones: the run must fail before executing anything, whatever the pool
// size, and the error must name the lowest malformed index.
func TestFleetMalformedCellFailsFast(t *testing.T) {
	cells := append(smallCells(),
		Cell{Scenario: "MARS", Scale: "tiny", Method: "DTN-FLOW"},
		Cell{Scenario: "DNET", Scale: "tiny", Method: "PER", Seed: 1},
		Cell{Scenario: "DNET", Scale: "huge", Method: "PER"},
	)
	for _, workers := range poolSizes {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunCells(cells, Options{Store: store, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: malformed cell accepted", workers)
		}
		if !strings.Contains(err.Error(), "cell 3:") {
			t.Errorf("workers=%d: error %q does not name cell 3", workers, err)
		}
		if _, puts := store.Counts(); puts != 0 || store.Len() != 0 {
			t.Errorf("workers=%d: %d cells executed and %d stored before the failure, want 0 / 0",
				workers, puts, store.Len())
		}
	}
}

// TestFleetLowestFailingIndex makes two cells fail during execution: the
// run must report the lower index whatever the pool size, and still
// store the results of the cells that succeeded.
func TestFleetLowestFailingIndex(t *testing.T) {
	defer func(orig func([]Cell, int, func(int, *CellResult, error))) {
		executeCells = orig
	}(executeCells)
	executeCells = func(cells []Cell, workers int, done func(int, *CellResult, error)) {
		ParallelFor(len(cells), workers, func(i int) {
			if c := cells[i]; c.Seed == 2 || c.Seed == 4 {
				done(i, nil, fmt.Errorf("seed %d fails", c.Seed))
			} else {
				done(i, fakeResult(t, c.Seed), nil)
			}
		})
	}
	cells := SweepCells([]string{"DART"}, Tiny, []string{"DTN-FLOW"}, 5, 0)
	for _, workers := range poolSizes {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, err = RunCells(cells, Options{Store: store, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "cell 1 ") {
			t.Errorf("workers=%d: error %v, want one naming cell 1", workers, err)
		}
		if _, puts := store.Counts(); puts != 3 || store.Len() != 3 {
			t.Errorf("workers=%d: %d executed / %d stored, want 3 / 3", workers, puts, store.Len())
		}
	}
}

// TestFleetSeedGroupsMatchExecuteCell checks the fork path of the fleet:
// the cells of a 3-seed sweep share one warmup per (scenario, method)
// group, and each result — summary and counters — must be byte-identical
// to the cell executed alone.
func TestFleetSeedGroupsMatchExecuteCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	cells := SweepCells([]string{"DART", "DNET"}, Tiny, []string{"DTN-FLOW", "PROPHET"}, 3, 0)
	results, err := RunCells(cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		alone, err := ExecuteCell(c)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(results[i])
		want, _ := json.Marshal(alone)
		if !bytes.Equal(got, want) {
			t.Errorf("cell %d (%s): grouped result differs from the cell run alone:\ngrouped: %s\nalone:   %s", i, c, got, want)
		}
	}
}
