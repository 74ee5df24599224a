package experiment

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestResolveWorkersTracksGOMAXPROCS pins the fix for the stale-default
// bug: the worker default must follow runtime.GOMAXPROCS changes made
// after package init, resolving at each call.
func TestResolveWorkersTracksGOMAXPROCS(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)

	runtime.GOMAXPROCS(2)
	if got := resolveWorkers(100, 0); got != 2 {
		t.Errorf("after GOMAXPROCS(2): resolveWorkers(100, 0) = %d, want 2", got)
	}
	runtime.GOMAXPROCS(3)
	if got := resolveWorkers(100, 0); got != 3 {
		t.Errorf("after GOMAXPROCS(3): resolveWorkers(100, 0) = %d, want 3", got)
	}

	if got := resolveWorkers(2, 0); got > 2 {
		t.Errorf("resolveWorkers(2, 0) = %d, want <= 2 (never exceeds n)", got)
	}
	if got := resolveWorkers(5, 8); got != 5 {
		t.Errorf("resolveWorkers(5, 8) = %d, want 5", got)
	}
	if got := resolveWorkers(5, 3); got != 3 {
		t.Errorf("resolveWorkers(5, 3) = %d, want 3 (explicit value wins)", got)
	}
	if got := resolveWorkers(0, 0); got != 1 {
		t.Errorf("resolveWorkers(0, 0) = %d, want 1", got)
	}
}

// TestParallelForBound checks the pool honours the resolved bound: with
// workers=3, no more than 3 items are ever in flight.
func TestParallelForBound(t *testing.T) {
	var inFlight, peak int64
	var mu sync.Mutex
	ParallelFor(64, 3, func(i int) {
		n := atomic.AddInt64(&inFlight, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
		atomic.AddInt64(&inFlight, -1)
	})
	if peak > 3 {
		t.Errorf("observed %d concurrent items, want <= 3", peak)
	}
	if peak < 1 {
		t.Error("pool ran nothing")
	}
}

// TestGroupDispatchOrder pins the executor's dispatch order: groups by
// cellCost descending — full before quick before tiny runs, DART before
// DNET at equal tier, an oracle cell at a tenth of its run's cost —
// input index breaking exact ties, and a group's runs kept together in
// seed order.
func TestGroupDispatchOrder(t *testing.T) {
	cells := []Cell{
		{Kind: CellRun, Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1}, // 0
		{Kind: CellOracle, Scenario: "DART", Scale: "full", Seed: 1},                  // 1
		{Kind: CellRun, Scenario: "DART", Scale: "full", Method: "DTN-FLOW", Seed: 1}, // 2
		{Kind: CellOracle, Scenario: "DART", Scale: "tiny", Seed: 1},                  // 3
		{Kind: CellRun, Scenario: "DNET", Scale: "full", Method: "DTN-FLOW", Seed: 1}, // 4
		{Kind: CellRun, Scenario: "DART", Scale: "tiny", Method: "PROPHET", Seed: 1},  // 5 (ties 0)
		{Kind: CellOracle, Scenario: "DNET", Scale: "quick", Seed: 1},                 // 6
		{Scenario: "DART", Scale: "quick", Method: "DTN-FLOW", Seed: 1},               // 7 (empty kind = run)
	}
	groups := make([]seedGroup, len(cells))
	for i, c := range cells {
		// Groups of one are never warmed, so placeholder runs suffice.
		groups[i] = seedGroup{runs: make([]Run, 1), cost: cellCost(c)}
	}
	// Group 0 has two runs; their Setup hook keeps its warm phase from
	// simulating anything.
	noop := func(*sim.Engine, sim.Router) {}
	groups[0].runs = []Run{{Setup: noop}, {Setup: noop}}
	var got [][2]int
	runGroups(groups, 1, func(g, i int) { got = append(got, [2]int{g, i}) })
	want := [][2]int{
		{2, 0}, // full DART run
		{4, 0}, // full DNET run
		{7, 0}, // quick DART run
		{1, 0}, // full DART oracle
		{0, 0}, // tiny DART runs (index tie-break with 5)
		{0, 1},
		{5, 0},
		{6, 0}, // quick DNET oracle
		{3, 0}, // tiny DART oracle
	}
	if !slices.Equal(got, want) {
		t.Errorf("dispatch order = %v, want %v", got, want)
	}
}
