package baselines

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// miniCtx builds a Context-compatible environment without running the
// engine, via a one-visit trace.
func miniCtx(t *testing.T, nodes, landmarks int) *sim.Context {
	t.Helper()
	tr := &trace.Trace{Name: "MINI", NumNodes: nodes, NumLandmarks: landmarks}
	for n := 0; n < nodes; n++ {
		tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: 0, Start: trace.Time(n), End: trace.Time(n) + 1})
	}
	tr.SortVisits()
	eng := sim.New(tr, NewBase(NewPROPHET()), nil, sim.Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 100, Unit: 1000, LinkRate: 1})
	return eng.Context()
}

func TestPROPHETScore(t *testing.T) {
	ctx := miniCtx(t, 2, 3)
	m := NewPROPHET()
	m.Init(ctx)
	n := ctx.Nodes[0]
	if m.Score(ctx, 0, 1, 0) != 0 {
		t.Error("score before any visit should be 0")
	}
	m.OnVisit(ctx, n, 1)
	s1 := m.Score(ctx, 0, 1, 0)
	if s1 != prophetPInit {
		t.Errorf("score after one visit = %v, want PInit", s1)
	}
	m.OnVisit(ctx, n, 1)
	if s2 := m.Score(ctx, 0, 1, 0); s2 <= s1 || s2 >= 1 {
		t.Errorf("score after second visit = %v, want in (%v, 1)", s2, s1)
	}
}

func TestPROPHETAges(t *testing.T) {
	m := NewPROPHET()
	m.p = [][]float64{{0.8}}
	m.lastAge = []trace.Time{0}
	m.age(0, 10*trace.Hour)
	if m.p[0][0] >= 0.8 {
		t.Errorf("score did not decay: %v", m.p[0][0])
	}
}

func TestSimBetScore(t *testing.T) {
	ctx := miniCtx(t, 2, 4)
	m := NewSimBet()
	m.Init(ctx)
	a, b := ctx.Nodes[0], ctx.Nodes[1]
	// Node 0 visits landmark 1 often; node 1 roams landmarks 0, 2, 3 but
	// never 1.
	for i := 0; i < 4; i++ {
		m.OnVisit(ctx, a, 1)
	}
	for _, lm := range []int{0, 2, 3} {
		m.OnVisit(ctx, b, lm)
	}
	// For destination 1, node 0's similarity dominates despite node 1's
	// higher centrality.
	if m.Score(ctx, 0, 1, 0) <= m.Score(ctx, 1, 1, 0) {
		t.Error("frequent visitor should outscore the roamer for its landmark")
	}
	// For a landmark node 0 never visits, the roamer's centrality wins.
	if m.Score(ctx, 1, 3, 0) <= m.Score(ctx, 0, 3, 0) {
		t.Error("roamer should outscore for an unvisited landmark")
	}
}

func TestPGRRoute(t *testing.T) {
	ctx := miniCtx(t, 1, 5)
	m := NewPGR()
	m.Init(ctx)
	n := ctx.Nodes[0]
	// Deterministic cycle 0 -> 1 -> 2 -> 0.
	for i := 0; i < 9; i++ {
		m.OnVisit(ctx, n, []int{0, 1, 2}[i%3])
	}
	// Currently at 2 (i=8); route: 0, 1, 2, ...
	route := m.predictedRoute(0)
	if len(route) == 0 || route[0] != 0 {
		t.Errorf("route = %v, want to start with 0", route)
	}
	if m.Score(ctx, 0, 0, 0) <= m.Score(ctx, 0, 1, 0) {
		t.Error("earlier stop on the route must score higher")
	}
	if m.Score(ctx, 0, 4, 0) != 0 {
		t.Error("off-route landmark must score 0")
	}
}

func TestGeoCommScore(t *testing.T) {
	// Run a real mini-trace so simulated time advances: node 0 spends
	// [0,100] at landmark 1 and [200,300] at landmark 0.
	tr := &trace.Trace{Name: "GC", NumNodes: 1, NumLandmarks: 3}
	tr.Visits = []trace.Visit{
		{Node: 0, Landmark: 1, Start: 0, End: 100},
		{Node: 0, Landmark: 0, Start: 200, End: 300},
	}
	tr.SortVisits()
	m := NewGeoComm()
	eng := sim.New(tr, NewBase(m), nil, sim.Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 1000, Unit: 10000, LinkRate: 1})
	eng.Run()
	ctx := eng.Context()
	if m.Score(ctx, 0, 1, 0) <= m.Score(ctx, 0, 2, 0) {
		t.Error("contacted landmark must outscore uncontacted")
	}
	if m.Score(ctx, 0, 2, 0) != 0 {
		t.Error("uncontacted landmark must score 0")
	}
}

func TestPERHittingMonotoneInSteps(t *testing.T) {
	ctx := miniCtx(t, 1, 4)
	m := NewPER()
	m.Init(ctx)
	n := ctx.Nodes[0]
	for _, lm := range []int{0, 1, 2, 3, 0, 2, 1, 3, 0, 1, 3, 2, 0} {
		m.OnVisit(ctx, n, lm)
	}
	// One walk to the deepest bucket fills all five; more steps reach
	// further, so no destination's probability falls from one bucket to
	// the next.
	m.hitting(ctx, 0, perBuckets-1)
	if m.cacheUpTo[0] != perBuckets {
		t.Fatalf("walk to bucket %d left %d buckets valid, want %d", perBuckets-1, m.cacheUpTo[0], perBuckets)
	}
	nLm := ctx.NumLandmarks()
	for d := 0; d < nLm; d++ {
		for bk := 1; bk < perBuckets; bk++ {
			lo, hi := m.cache[0][(bk-1)*nLm+d], m.cache[0][bk*nLm+d]
			if hi < lo {
				t.Errorf("dst %d: hitting probability fell from %v at %d steps to %v at %d steps", d, lo, 1<<(bk-1), hi, 1<<bk)
			}
		}
	}
}

func TestBaseDeterminism(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	run := func() interface{} {
		cfg := sim.DefaultConfig(tr.Duration())
		cfg.TTL = 2 * trace.Day
		cfg.Unit = 12 * trace.Hour
		w := sim.NewWorkload(100, cfg.PacketSize, cfg.TTL)
		return sim.New(tr, NewBase(NewPROPHET()), w, cfg).Run().Summary
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("baseline runs are not deterministic")
	}
}

func TestRelayMovesTowardHigherScore(t *testing.T) {
	// Two nodes co-located at landmark 0; node 1 scores higher for the
	// packet's destination, so the packet must relay 0 -> 1.
	tr := &trace.Trace{Name: "RELAY", NumNodes: 2, NumLandmarks: 3}
	tr.Visits = []trace.Visit{
		{Node: 0, Landmark: 0, Start: 0, End: 100},
		{Node: 1, Landmark: 2, Start: 0, End: 50},   // node 1 builds history at 2
		{Node: 1, Landmark: 0, Start: 60, End: 100}, // then joins node 0
	}
	tr.SortVisits()
	m := NewPROPHET()
	b := NewBase(m)
	eng := sim.New(tr, b, nil, sim.Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 1000, Unit: 10000, LinkRate: 1})
	ctx := eng.Context()
	p := &sim.Packet{ID: 0, Src: 0, Dst: 2, DstNode: -1, Size: 1, Created: 0, Expiry: 1000, NextHop: -1}
	ctx.Nodes[0].Buffer.Add(p)
	eng.Run()
	// Node 1 visited landmark 2 before joining node 0, so it outscored
	// node 0 and must have taken the packet during the encounter.
	if ctx.Nodes[0].Buffer.Len() != 0 {
		t.Error("packet stayed on the lower-scoring node")
	}
}

// countingMethod scores every node 0 and counts its scorings per node.
type countingMethod struct{ scored []int }

func (m *countingMethod) Name() string                                  { return "COUNT" }
func (m *countingMethod) Init(ctx *sim.Context)                         { m.scored = make([]int, len(ctx.Nodes)) }
func (m *countingMethod) OnVisit(ctx *sim.Context, n *sim.Node, lm int) {}
func (m *countingMethod) Clone() Method                                 { return &countingMethod{scored: slices.Clone(m.scored)} }
func (m *countingMethod) Score(ctx *sim.Context, node, dst int, remaining trace.Time) float64 {
	m.scored[node]++
	return 0
}

// fillBuffer adds k one-byte packets for landmark 1 to n's buffer.
func fillBuffer(t *testing.T, n *sim.Node, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if !n.Buffer.Add(&sim.Packet{ID: n.ID*100 + i, Dst: 1, DstNode: -1, Size: 1, Expiry: 100, NextHop: -1}) {
			t.Fatalf("node %d: packet %d does not fit", n.ID, i)
		}
	}
}

// TestExchangeScoresOnlyMovable checks the exchange rule: a receiver with
// room gets every packet scored on both sides; a full receiver gets only
// the sender's first packet scored, once per side.
func TestExchangeScoresOnlyMovable(t *testing.T) {
	for _, tc := range []struct {
		name         string
		held, scored int // packets the receiver holds; scorings per side
	}{
		{"room", 9, 4},
		{"full", 10, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := miniCtx(t, 2, 3) // 10-byte node memory
			from, to := ctx.Nodes[0], ctx.Nodes[1]
			fillBuffer(t, from, 4)
			fillBuffer(t, to, tc.held)
			m := &countingMethod{}
			m.Init(ctx)
			NewBase(m).exchange(ctx, nil, from, to)
			if want := []int{tc.scored, tc.scored}; !slices.Equal(m.scored, want) {
				t.Errorf("scorings per node = %v, want %v", m.scored, want)
			}
		})
	}
}

// TestPGRFullReceiverRefreshesRoute: a node whose only scoring during a
// visit comes from an exchange in which it is the full receiver still
// refreshes its cached route in that visit, so back at an earlier
// landmark it predicts from the newer counts instead of reusing the
// route cached there.
func TestPGRFullReceiverRefreshesRoute(t *testing.T) {
	ctx := miniCtx(t, 2, 4)
	m := NewPGR()
	m.Init(ctx)
	a, peer := ctx.Nodes[0], ctx.Nodes[1]
	for _, lm := range []int{0, 1, 2, 0, 1} {
		m.OnVisit(ctx, a, lm)
	}
	if got, want := m.predictedRoute(a.ID), []int{2, 0, 1, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("route at 1 = %v, want %v", got, want)
	}
	fillBuffer(t, a, 10)
	fillBuffer(t, peer, 2)
	for _, lm := range []int{3, 1, 3} {
		m.OnVisit(ctx, a, lm)
	}
	NewBase(m).exchange(ctx, nil, peer, a)
	m.OnVisit(ctx, a, 1)
	// From 1 the node now went to 3 twice and to 2 once.
	if got, want := m.predictedRoute(a.ID), []int{3, 1, 3, 1, 3}; !slices.Equal(got, want) {
		t.Errorf("route back at 1 = %v, want %v (the one cached at 1 before is stale)", got, want)
	}
}

// TestPERBucket compares perBucket with the division it replaces, over
// remaining budgets around every threshold, negative ones included, at a
// 1 s step, other steps, and a zero mean step.
func TestPERBucket(t *testing.T) {
	byDivision := func(remaining, step trace.Time) int {
		steps := perMaxSteps
		if step > 0 {
			steps = min(int(remaining/step), perMaxSteps)
		}
		bk := 0
		for 1<<bk < steps {
			bk++
		}
		return bk
	}
	for _, step := range []trace.Time{0, 1, 2, 7, trace.Hour, trace.Day} {
		for k := trace.Time(-3); k <= 2*perMaxSteps; k++ {
			for _, off := range []trace.Time{-1, 0, 1, step / 2} {
				rem := k*step + off
				if got, want := perBucket(rem, step), byDivision(rem, step); got != want {
					t.Errorf("step %d, remaining %d: bucket %d, want %d", step, rem, got, want)
				}
			}
		}
	}
}
