package core

import (
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shuttleTrace builds numNodes nodes all commuting 0 -> 1 -> 0 -> ... with
// staggered phases, plus one node commuting 1 -> 2 so landmark 2 is
// reachable.
func shuttleTrace(numNodes, trips int) *trace.Trace {
	tr := &trace.Trace{Name: "SHUTTLE", NumNodes: numNodes + 1, NumLandmarks: 3}
	for n := 0; n < numNodes; n++ {
		t := trace.Time(n * 10)
		for i := 0; i < trips; i++ {
			tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: i % 2, Start: t, End: t + 100})
			t += 150
		}
	}
	t := trace.Time(5)
	for i := 0; i < trips; i++ {
		tr.Visits = append(tr.Visits, trace.Visit{Node: numNodes, Landmark: 1 + i%2, Start: t, End: t + 100})
		t += 150
	}
	tr.SortVisits()
	return tr
}

func shuttleConfig(tr *trace.Trace) sim.Config {
	return sim.Config{
		Seed: 1, PacketSize: 1, NodeMemory: 1000,
		TTL: 1 << 30, Unit: 1000, Warmup: 0, LinkRate: 10,
	}
}

// TestBandwidthMeasurementConverges checks the IV-C.1 pipeline end to end:
// arrivals are counted per previous landmark, reports travel inside nodes
// back to the link's source, and the landmark's bandwidth estimate and
// link delay become finite.
func TestBandwidthMeasurementConverges(t *testing.T) {
	tr := shuttleTrace(4, 40)
	r := New(DefaultConfig())
	eng := sim.New(tr, r, nil, shuttleConfig(tr))
	eng.Run()
	if b := r.Bandwidth(0, 1); b <= 0 {
		t.Errorf("bandwidth 0->1 = %v, want > 0", b)
	}
	if d := r.Table(0).LinkDelay(1); d >= routing.Infinite {
		t.Error("link delay 0->1 still infinite after 40 trips")
	}
	// Multi-hop route 0 -> 1 -> 2 must exist via the distance vector.
	if e, ok := r.Table(0).Lookup(2); !ok || e.Next != 1 {
		t.Errorf("route 0->2 = %+v ok=%v, want next hop 1", e, ok)
	}
}

// TestPacketRoutesAcrossTwoHops injects a packet at landmark 0 for
// landmark 2; it must travel 0 -> 1 (shuttle nodes) -> 2 (the 1<->2 node).
// Loop correction is on so the router records the landmark path, starting
// at the source in OnGenerate.
func TestPacketRoutesAcrossTwoHops(t *testing.T) {
	tr := shuttleTrace(4, 60)
	cfg := DefaultConfig()
	cfg.LoopFix = true
	r := New(cfg)
	eng := sim.New(tr, r, nil, shuttleConfig(tr))
	ctx := eng.Context()
	var p *sim.Packet
	ctx.Schedule(4000, func() { // after the control plane converged
		p = &sim.Packet{ID: 0, Src: 0, Dst: 2, DstNode: -1, Size: 1, Created: 4000, Expiry: 1 << 30, NextHop: -1, ExpDelay: 1e308}
		ctx.Stations[0].Buffer.Add(p)
		r.OnGenerate(ctx, p)
	})
	eng.Run()
	if p == nil || !p.Done() {
		t.Fatalf("packet not delivered: %+v", p)
	}
	// Its landmark path must start at the source and include the
	// intermediate landmark 1.
	if len(p.Path) == 0 || p.Path[0] != 0 {
		t.Errorf("path %v does not start at the source", p.Path)
	}
	saw1 := false
	for _, lm := range p.Path {
		if lm == 1 {
			saw1 = true
		}
	}
	if !saw1 {
		t.Errorf("path %v skipped the intermediate landmark", p.Path)
	}
}

// TestForwardPassPriority checks the scheduling priority of IV-D.5 in a
// forwarding pass: with two feasible packets for the same next hop and a
// single carrier that has room for only one of them, the packet with the
// smaller remaining TTL leaves first, even though it was queued second.
func TestForwardPassPriority(t *testing.T) {
	tr := shuttleTrace(2, 40)
	r := New(DefaultConfig())
	eng := sim.New(tr, r, nil, shuttleConfig(tr))
	ctx := eng.Context()
	ran := false
	// At 4605 node 0 has just left landmark 0 and node 1 (shuttling 0<->1,
	// so predicted to transit to 1) is its only visitor; the route 0->2
	// runs through 1 by then.
	ctx.Schedule(4605, func() {
		ran = true
		present := ctx.NodesAt(0)
		if len(present) != 1 {
			t.Fatalf("%d nodes at landmark 0, want 1", len(present))
		}
		carrier := present[0]
		now := ctx.Now()
		late := &sim.Packet{ID: 1, Src: 0, Dst: 2, DstNode: -1, Size: 1, Created: now, Expiry: 1 << 30, NextHop: -1, ExpDelay: 1e308}
		early := &sim.Packet{ID: 2, Src: 0, Dst: 2, DstNode: -1, Size: 1, Created: now, Expiry: now + 1<<20, NextHop: -1, ExpDelay: 1e308}
		st := ctx.Stations[0]
		for _, p := range []*sim.Packet{late, early} {
			st.Buffer.Add(p)
			r.stationReceive(ctx, 0, p)
			if target, exp := r.route(ctx, 0, p, 0); target != 1 || exp >= float64(p.Remaining(now)) {
				t.Fatalf("packet %d: route target %d delay %v, want a feasible hop to 1", p.ID, target, exp)
			}
		}
		carrier.Buffer.Capacity = carrier.Buffer.Used() + 1
		if sent := r.forwardPass(ctx, 0, nil); sent != 1 {
			t.Fatalf("forward pass sent %d packets, want 1", sent)
		}
		if st.Buffer.Len() != 1 || st.Buffer.Packets()[0] != late {
			t.Errorf("the later-expiring packet should stay at the station")
		}
		if early.NextHop != 1 {
			t.Errorf("early packet next hop = %d, want 1 (handed to the carrier)", early.NextHop)
		}
		carrier.Buffer.Capacity = 1000
	})
	eng.Run()
	if !ran {
		t.Fatal("scheduled check never ran")
	}
}

// checkStrictOrder asserts cmp is a strict total order on elems, whose
// members are pairwise distinct: irreflexive equality only on identity,
// antisymmetric, and transitive.
func checkStrictOrder[T any](t *testing.T, elems []T, cmp func(a, b T) int) {
	t.Helper()
	sign := func(v int) int {
		switch {
		case v < 0:
			return -1
		case v > 0:
			return 1
		}
		return 0
	}
	for i, a := range elems {
		for j, b := range elems {
			ab, ba := sign(cmp(a, b)), sign(cmp(b, a))
			if (i == j) != (ab == 0) {
				t.Errorf("cmp(%d, %d) = %d: only an element equals itself", i, j, ab)
			}
			if ab != -ba {
				t.Errorf("cmp(%d, %d) = %d but cmp(%d, %d) = %d", i, j, ab, j, i, ba)
			}
			for k, c := range elems {
				if ab < 0 && sign(cmp(b, c)) < 0 && sign(cmp(a, c)) >= 0 {
					t.Errorf("not transitive: %d < %d < %d but not %d < %d", i, j, k, i, k)
				}
			}
		}
	}
}

// TestComparatorsStrictTotalOrders pins the candidate, eligibility and
// carrier orders: each comparison below has a fixed outcome, and each
// comparator is a strict total order over elements that tie on every
// key but the last, so the sort algorithm cannot influence the result.
func TestComparatorsStrictTotalOrders(t *testing.T) {
	pk := func(id int, expiry trace.Time) *sim.Packet { return &sim.Packet{ID: id, Expiry: expiry} }
	p1, p2, p3, p4 := pk(1, 100), pk(2, 100), pk(3, 50), pk(4, 200)
	nd := func(id int) *sim.Node { return &sim.Node{ID: id} }
	n1, n2, n3 := nd(1), nd(2), nd(3)

	cands := []cand{
		{p: p1, feasible: true}, {p: p2, feasible: true}, {p: p3, feasible: true},
		{p: p4, feasible: true}, {p: pk(5, 10)}, {p: pk(6, 10)},
	}
	eligs := []elig{
		{p: p1, feasible: true}, {p: p2, feasible: true}, {p: p3, feasible: true},
		{p: p4, feasible: true}, {p: pk(5, 10)}, {p: pk(6, 10)},
	}
	carriers := []carrierEnt{{n: n1, po: 0.5}, {n: n2, po: 0.5}, {n: n3, po: 0.9}, {n: nd(4), po: 0.1}}

	cases := []struct {
		name string
		got  int
		want int // sign of the comparison
	}{
		{"cand: feasible before infeasible", cmpCand(cand{p: p4, feasible: true}, cand{p: p3}), -1},
		{"cand: smaller remaining TTL first", cmpCand(cand{p: p3, feasible: true}, cand{p: p1, feasible: true}), -1},
		{"cand: ID breaks expiry ties", cmpCand(cand{p: p2, feasible: true}, cand{p: p1, feasible: true}), 1},
		{"elig: feasible before infeasible", cmpElig(elig{p: p4, feasible: true}, elig{p: p3}), -1},
		{"elig: smaller remaining TTL first", cmpElig(elig{p: p3, feasible: true}, elig{p: p1, feasible: true}), -1},
		{"elig: ID breaks expiry ties", cmpElig(elig{p: p1, feasible: true}, elig{p: p2, feasible: true}), -1},
		{"carrier: higher p_o first", cmpCarrier(carrierEnt{n: n3, po: 0.9}, carrierEnt{n: n1, po: 0.5}), -1},
		{"carrier: node ID breaks p_o ties", cmpCarrier(carrierEnt{n: n2, po: 0.5}, carrierEnt{n: n1, po: 0.5}), 1},
	}
	for _, tc := range cases {
		if got := max(-1, min(1, tc.got)); got != tc.want {
			t.Errorf("%s: sign %d, want %d", tc.name, got, tc.want)
		}
	}
	t.Run("cmpCand", func(t *testing.T) { checkStrictOrder(t, cands, cmpCand) })
	t.Run("cmpElig", func(t *testing.T) { checkStrictOrder(t, eligs, cmpElig) })
	t.Run("cmpCarrier", func(t *testing.T) { checkStrictOrder(t, carriers, cmpCarrier) })
}

// TestRouteRecordsPath: with loop correction on, every station receipt
// appends its landmark to the packet's path; with it off, nothing reads
// the path and the router leaves it nil.
func TestRouteRecordsPath(t *testing.T) {
	tr := shuttleTrace(2, 20)
	for _, loopFix := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.LoopFix = loopFix
		r := New(cfg)
		eng := sim.New(tr, r, nil, shuttleConfig(tr))
		ctx := eng.Context()
		r.Init(ctx)
		p := &sim.Packet{ID: 0, Src: 0, Dst: 2, DstNode: -1, Size: 1, Expiry: 1 << 30, NextHop: -1}
		r.stationReceive(ctx, 0, p)
		r.stationReceive(ctx, 1, p)
		switch {
		case loopFix && !slices.Equal(p.Path, []int{0, 1}):
			t.Errorf("LoopFix on: path = %v, want [0 1]", p.Path)
		case !loopFix && p.Path != nil:
			t.Errorf("LoopFix off: path = %v, want nil", p.Path)
		}
	}
}

func TestAssignNodeDestPicksFrequented(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NodeRouting = true
	tr := shuttleTrace(2, 10)
	r := New(cfg)
	eng := sim.New(tr, r, nil, shuttleConfig(tr))
	r.Init(eng.Context())
	// Node 5's tallies: landmark 2 most frequented.
	r.refreshFrequented(0, 2)
	r.refreshFrequented(0, 2)
	r.refreshFrequented(0, 1)
	p := &sim.Packet{ID: 0, Src: 0, Dst: 9999, DstNode: 0, Size: 1}
	r.assignNodeDest(p)
	if p.Dst != 2 && p.Dst != 1 {
		t.Errorf("rendezvous = %d, want a frequented landmark", p.Dst)
	}
}
