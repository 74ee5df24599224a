package fleet

import (
	"reflect"
	"testing"

	"repro/internal/experiment"
)

// TestOrderQueue pins the dispatch order: scale cells by multiplier
// descending, then full before quick before tiny runs, DART before DNET at
// equal tier, input index breaking exact ties.
func TestOrderQueue(t *testing.T) {
	cells := []experiment.Cell{
		{Kind: experiment.CellRun, Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1}, // 0
		{Kind: experiment.CellScale, Scenario: "DNET", Method: "DTN-FLOW", Mult: 10, Seed: 1},    // 1
		{Kind: experiment.CellRun, Scenario: "DART", Scale: "full", Method: "DTN-FLOW", Seed: 1}, // 2
		{Kind: experiment.CellScale, Scenario: "DART", Method: "DTN-FLOW", Mult: 32, Seed: 1},    // 3
		{Kind: experiment.CellRun, Scenario: "DNET", Scale: "full", Method: "DTN-FLOW", Seed: 1}, // 4
		{Kind: experiment.CellRun, Scenario: "DART", Scale: "tiny", Method: "PROPHET", Seed: 1},  // 5 (ties 0)
		{Kind: experiment.CellScale, Scenario: "DART", Method: "DTN-FLOW", Mult: 1, Seed: 1},     // 6
		{Scenario: "DART", Scale: "quick", Method: "DTN-FLOW", Seed: 1},                          // 7 (empty kind = run)
	}
	queue := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orderQueue(queue, cells)
	want := []int{
		3, // 32× DART scale
		1, // 10× DNET scale
		6, // 1× DART scale
		2, // full DART run
		4, // full DNET run
		7, // quick DART run
		0, // tiny DART run (index tie-break with 5)
		5,
	}
	if !reflect.DeepEqual(queue, want) {
		t.Errorf("orderQueue = %v, want %v", queue, want)
	}
}

// TestOrderQueueDeterministic checks that a pre-shuffled queue converges to
// the same order — the property Run relies on when cache hits
// punch holes in the index sequence.
func TestOrderQueueDeterministic(t *testing.T) {
	cells := experiment.GoldenCells()
	a := []int{5, 3, 1, 0, 2, 4, 11, 9, 7, 6, 8, 10}
	b := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	orderQueue(a, cells)
	orderQueue(b, cells)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("order depends on input permutation: %v vs %v", a, b)
	}
}
