package baselines

import (
	"slices"

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
	trans [][]transRow // node -> landmark -> next-landmark counts
	last  []int        // node -> current landmark

	// cache: each node's predicted route, stored flat (node n's at
	// [n*pgrHorizon, n*pgrHorizon+cacheLen[n])), and the landmark it was
	// predicted at. OnVisit does not invalidate it: the route is
	// recomputed only when Score runs while the node is at another
	// landmark, so a node that leaves and comes back between two scorings
	// keeps a route built from older counts, and PGR's output depends on
	// which of a node's visits contain at least one scoring. Base.exchange
	// scores the first packet of every exchange on both sides, even when
	// the receiver is full, to keep that set unchanged.
	cacheAt    []int
	cacheLen   []int
	cacheRoute []int
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
	return &PGR{
		trans:      cloneRows(m.trans),
		last:       slices.Clone(m.last),
		cacheAt:    slices.Clone(m.cacheAt),
		cacheLen:   slices.Clone(m.cacheLen),
		cacheRoute: slices.Clone(m.cacheRoute),
	}
}

// Init implements Method.
func (m *PGR) Init(ctx *sim.Context) {
	nN := len(ctx.Nodes)
	m.trans = make([][]transRow, nN)
	for i := range m.trans {
		m.trans[i] = make([]transRow, ctx.NumLandmarks())
	}
	m.last = make([]int, nN)
	m.cacheAt = make([]int, nN)
	m.cacheLen = make([]int, nN)
	m.cacheRoute = make([]int, nN*pgrHorizon)
	for i := range m.last {
		m.last[i] = -1
		m.cacheAt[i] = -1
	}
}

// OnVisit implements Method.
func (m *PGR) OnVisit(ctx *sim.Context, n *sim.Node, lm int) {
	if prev := m.last[n.ID]; prev >= 0 && prev != lm {
		m.trans[n.ID][prev].bump(lm)
	}
	m.last[n.ID] = lm
}

// predictedRoute follows the most likely transition from the node's
// current landmark for pgrHorizon steps, ties going to the smaller
// landmark. The route is reused while the node is scored at the landmark
// it was computed at, even after the node has moved away and back (the
// transition counts change slowly). The returned slice aliases the cache.
func (m *PGR) predictedRoute(node int) []int {
	cur := m.last[node]
	if cur < 0 {
		return nil
	}
	route := m.cacheRoute[node*pgrHorizon : node*pgrHorizon : (node+1)*pgrHorizon]
	if m.cacheAt[node] == cur {
		return route[:m.cacheLen[node]]
	}
	for len(route) < pgrHorizon {
		row := &m.trans[node][cur]
		best, bestC := -1, int32(0)
		for i, next := range row.to {
			if c := row.cnt[i]; c > bestC || (c == bestC && int(next) < best) {
				best, bestC = int(next), c
			}
		}
		if best < 0 {
			break
		}
		route = append(route, best)
		cur = best
	}
	m.cacheAt[node] = m.last[node]
	m.cacheLen[node] = len(route)
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
