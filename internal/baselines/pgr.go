package baselines

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// PGR adapts geographical routing (Kurhinen & Janatuinen): each node's
// observed mobility route — its per-landmark transition counts — is used to
// predict the sequence of landmarks it will visit next, and a packet is
// scored by whether its destination landmark lies on that predicted route.
// Predicting an entire multi-landmark route is inaccurate (the paper
// measures single-step accuracy below 80%), which is why PGR shows the
// lowest success rate and forwarding cost (Section V-A.2).
type PGR struct {
	trans [][]map[int]int // node -> landmark -> next-landmark counts
	last  []int           // node -> current landmark

	// cache: each node's predicted route and the landmark it was predicted
	// at. OnVisit does not invalidate it: the route is recomputed only
	// when Score runs while the node is at another landmark, so a node
	// that leaves and comes back between two scorings keeps a route built
	// from older counts, and PGR's output depends on which Score calls
	// happen.
	cacheAt    []int
	cacheRoute [][]int
}

// pgrHorizon is the length of the route PGR predicts for a node (Section
// V-A.2 baseline): five landmark hops.
const pgrHorizon = 5

// NewPGR returns a PGR instance.
func NewPGR() *PGR { return &PGR{} }

// Name implements Method.
func (m *PGR) Name() string { return "PGR" }

// Clone implements Method. Predicted-route caches are copied with the
// counts: a cached route may predate the latest counts (see the cache
// field), so a clone that recomputed it could score differently from
// the original.
func (m *PGR) Clone() Method {
	cp := &PGR{
		last:    append([]int(nil), m.last...),
		cacheAt: append([]int(nil), m.cacheAt...),
	}
	cp.trans = make([][]map[int]int, len(m.trans))
	for i, rows := range m.trans {
		cprows := make([]map[int]int, len(rows))
		for j, nm := range rows {
			if nm == nil {
				continue
			}
			inner := make(map[int]int, len(nm))
			for next, c := range nm {
				inner[next] = c
			}
			cprows[j] = inner
		}
		cp.trans[i] = cprows
	}
	cp.cacheRoute = make([][]int, len(m.cacheRoute))
	for i, route := range m.cacheRoute {
		if route != nil {
			cp.cacheRoute[i] = append([]int(nil), route...)
		}
	}
	return cp
}

// Init implements Method.
func (m *PGR) Init(ctx *sim.Context) {
	m.trans = make([][]map[int]int, len(ctx.Nodes))
	for i := range m.trans {
		m.trans[i] = make([]map[int]int, ctx.NumLandmarks())
	}
	m.last = make([]int, len(ctx.Nodes))
	m.cacheAt = make([]int, len(ctx.Nodes))
	m.cacheRoute = make([][]int, len(ctx.Nodes))
	for i := range m.last {
		m.last[i] = -1
		m.cacheAt[i] = -1
	}
}

// OnVisit implements Method.
func (m *PGR) OnVisit(ctx *sim.Context, n *sim.Node, lm int) {
	if prev := m.last[n.ID]; prev >= 0 && prev != lm {
		if m.trans[n.ID][prev] == nil {
			m.trans[n.ID][prev] = map[int]int{}
		}
		m.trans[n.ID][prev][lm]++
	}
	m.last[n.ID] = lm
}

// predictedRoute follows the most likely transition from the node's
// current landmark for pgrHorizon steps. The route is reused while the
// node is scored at the landmark it was computed at, even after the node
// has moved away and back (the transition counts change slowly).
func (m *PGR) predictedRoute(node int) []int {
	cur := m.last[node]
	if cur < 0 {
		return nil
	}
	if m.cacheAt[node] == cur {
		return m.cacheRoute[node]
	}
	route := make([]int, 0, pgrHorizon)
	for step := 0; step < pgrHorizon; step++ {
		nm := m.trans[node][cur]
		best, bestC := -1, 0
		for next, c := range nm {
			if c > bestC || (c == bestC && next < best) {
				best, bestC = next, c
			}
		}
		if best < 0 {
			break
		}
		route = append(route, best)
		cur = best
	}
	m.cacheAt[node] = m.last[node]
	m.cacheRoute[node] = route
	return route
}

// Score implements Method: 1/position when the destination is on the
// node's predicted route (earlier is better), 0 otherwise.
func (m *PGR) Score(ctx *sim.Context, node, dst int, remaining trace.Time) float64 {
	for i, lm := range m.predictedRoute(node) {
		if lm == dst {
			return 1 / float64(i+1)
		}
	}
	return 0
}
