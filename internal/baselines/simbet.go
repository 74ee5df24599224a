package baselines

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// SimBet adapts Daly & Haahr's social routing to landmarks: a node's
// suitability for a destination landmark combines its similarity with the
// landmark (how frequently it visits it, per the paper's adaptation) and
// its centrality (how well it connects landmarks). High-centrality nodes
// attract packets, which is why SimBet shows the lowest forwarding cost of
// the utility baselines but only moderate delay (Section V-A.2).
type SimBet struct {
	visits [][]int // node -> landmark -> visit count
	total  []int   // node -> total visits
	degree []int   // node -> distinct landmarks visited
	nLm    int
}

// simbetAlpha is the weight of similarity in SimBet's score (Section
// V-A.2 baseline). At 0.4 the score leans toward centrality, the trait the
// paper credits for packets gathering on central nodes; the golden corpus
// pins this value.
const simbetAlpha float64 = 0.4

// NewSimBet returns a SimBet instance.
func NewSimBet() *SimBet { return &SimBet{} }

// Name implements Method.
func (m *SimBet) Name() string { return "SimBet" }

// Clone implements Method.
func (m *SimBet) Clone() Method {
	cp := &SimBet{nLm: m.nLm}
	cp.visits = make([][]int, len(m.visits))
	for i, v := range m.visits {
		cp.visits[i] = append([]int(nil), v...)
	}
	cp.total = append([]int(nil), m.total...)
	cp.degree = append([]int(nil), m.degree...)
	return cp
}

// Init implements Method.
func (m *SimBet) Init(ctx *sim.Context) {
	m.nLm = ctx.NumLandmarks()
	m.visits = make([][]int, len(ctx.Nodes))
	for i := range m.visits {
		m.visits[i] = make([]int, m.nLm)
	}
	m.total = make([]int, len(ctx.Nodes))
	m.degree = make([]int, len(ctx.Nodes))
}

// OnVisit implements Method.
func (m *SimBet) OnVisit(ctx *sim.Context, n *sim.Node, lm int) {
	if m.visits[n.ID][lm] == 0 {
		m.degree[n.ID]++
	}
	m.visits[n.ID][lm]++
	m.total[n.ID]++
}

// Score implements Method: α·similarity + (1−α)·centrality, where
// similarity is the node's visit frequency to the destination landmark and
// centrality its degree over the landmark set.
func (m *SimBet) Score(ctx *sim.Context, node, dst int, remaining trace.Time) float64 {
	if m.total[node] == 0 {
		return 0
	}
	sim := float64(m.visits[node][dst]) / float64(m.total[node])
	cen := float64(m.degree[node]) / float64(m.nLm)
	return simbetAlpha*sim + (1-simbetAlpha)*cen
}
