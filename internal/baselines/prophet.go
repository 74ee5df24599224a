package baselines

import (
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PROPHET adapts probabilistic routing (Lindgren et al.) to
// landmark-to-landmark routing: a node's delivery predictability for a
// landmark grows on every visit and ages over time; packets flow greedily
// toward nodes with higher predictability for their destination landmark
// (the paper's adaptation "simply employs the visiting records with
// landmarks to calculate the future meeting probability").
type PROPHET struct {
	p       [][]float64  // node -> landmark -> predictability
	lastAge []trace.Time // node -> last aging timestamp
}

// PROPHET's customary constants (Section V-A.2 baseline): the
// predictability boost per visit, the aging factor per aging unit, and
// the aging granularity.
const (
	prophetPInit    float64    = 0.75
	prophetGammaAge float64    = 0.98
	prophetAgeUnit  trace.Time = trace.Hour
)

// NewPROPHET returns a PROPHET instance.
func NewPROPHET() *PROPHET { return &PROPHET{} }

// Name implements Method.
func (m *PROPHET) Name() string { return "PROPHET" }

// Clone implements Method.
func (m *PROPHET) Clone() Method {
	cp := &PROPHET{}
	cp.p = make([][]float64, len(m.p))
	for i, vec := range m.p {
		cp.p[i] = append([]float64(nil), vec...)
	}
	cp.lastAge = append([]trace.Time(nil), m.lastAge...)
	return cp
}

// Init implements Method.
func (m *PROPHET) Init(ctx *sim.Context) {
	m.p = make([][]float64, len(ctx.Nodes))
	for i := range m.p {
		m.p[i] = make([]float64, ctx.NumLandmarks())
	}
	m.lastAge = make([]trace.Time, len(ctx.Nodes))
}

// age applies exponential decay to node's whole vector.
func (m *PROPHET) age(node int, now trace.Time) {
	dt := now - m.lastAge[node]
	if dt < prophetAgeUnit {
		return
	}
	k := float64(dt) / float64(prophetAgeUnit)
	f := math.Pow(prophetGammaAge, k)
	vec := m.p[node]
	for i := range vec {
		vec[i] *= f
	}
	m.lastAge[node] = now
}

// OnVisit implements Method.
func (m *PROPHET) OnVisit(ctx *sim.Context, n *sim.Node, lm int) {
	m.age(n.ID, ctx.Now())
	m.p[n.ID][lm] += (1 - m.p[n.ID][lm]) * prophetPInit
}

// Score implements Method.
func (m *PROPHET) Score(ctx *sim.Context, node, dst int, remaining trace.Time) float64 {
	return m.p[node][dst]
}
