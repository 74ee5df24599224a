package fleet

import (
	"sort"

	"repro/internal/experiment"
)

// estimatedCost ranks a cell for longest-first dispatch. The scale only has
// to order cells relative to each other, not predict wall time: scale-tier
// cells grow linearly with the population multiplier and dwarf paper-tier
// runs, and within a tier the scenario's RunCost orders them.
func estimatedCost(c experiment.Cell) float64 {
	sc := experiment.RunCost(c.Scenario)
	kind := c.Kind
	if kind == "" {
		kind = experiment.CellRun
	}
	if kind == experiment.CellScale {
		mult := c.Mult
		if mult < 1 {
			mult = 1
		}
		// A 1× scale run already covers the Full trace; any multiplier
		// outweighs every paper-tier cell.
		return 100 * sc * float64(mult)
	}
	switch experiment.Scale(c.Scale) {
	case experiment.Full:
		return 50 * sc
	case experiment.Quick:
		return 10 * sc
	default: // tiny (and anything unknown — it will fail fast anyway)
		return sc
	}
}

// orderQueue sorts pending cell indices by estimated cost descending,
// breaking ties by input index so the order is deterministic.
func orderQueue(queue []int, cells []experiment.Cell) {
	sort.Slice(queue, func(a, b int) bool {
		ca, cb := estimatedCost(cells[queue[a]]), estimatedCost(cells[queue[b]])
		if ca != cb {
			return ca > cb
		}
		return queue[a] < queue[b]
	})
}
