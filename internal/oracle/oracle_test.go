package oracle

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// mkTrace assembles a hand-built trace from visit tuples
// (node, landmark, start, end), sorted and validated.
func mkTrace(t *testing.T, nodes, landmarks int, visits ...[4]int64) *trace.Trace {
	t.Helper()
	tr := &trace.Trace{Name: "hand", NumNodes: nodes, NumLandmarks: landmarks}
	for _, v := range visits {
		tr.Visits = append(tr.Visits, trace.Visit{
			Node: int(v[0]), Landmark: int(v[1]),
			Start: trace.Time(v[2]), End: trace.Time(v[3]),
		})
	}
	tr.SortVisits()
	if err := tr.Validate(); err != nil {
		t.Fatalf("hand-built trace invalid: %v", err)
	}
	return tr
}

// TestCapacityContention: one contact pair with transfer budget for a
// single packet. Both packets are deliverable in the relaxed bound, but
// the committed schedule may only deliver one — the budget of the
// departure and arrival visits is consumed by the first packet in
// generation order.
func TestCapacityContention(t *testing.T) {
	// Node 0 visits L0 for 10s, then L1: one edge L0->L1, budget
	// max(1, 0.05*10) = 1 transfer on each endpoint visit.
	tr := mkTrace(t, 1, 2,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
	)
	cfg := Config{LinkRate: 0.05}
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 1, Created: 0, Expiry: 100, Size: 1},
		{ID: 1, Src: 0, Dst: 1, Created: 0, Expiry: 100, Size: 1},
	}
	res := SolveTrace(tr, cfg, pkts)
	if res.Deliverable != 2 {
		t.Fatalf("relaxed bound: want 2 deliverable, got %d", res.Deliverable)
	}
	for i := range res.Packets {
		if got := res.Packets[i].EAT; got != 20 {
			t.Errorf("packet %d: EAT = %d, want 20", i, got)
		}
	}
	if res.CommittedDelivered != 1 {
		t.Fatalf("committed schedule: want 1 delivered under budget 1, got %d", res.CommittedDelivered)
	}
	// Generation order wins the contested budget.
	if !res.Packets[0].Committed || res.Packets[1].Committed {
		t.Fatalf("commit order: want packet 0 committed and packet 1 refused, got %v/%v",
			res.Packets[0].Committed, res.Packets[1].Committed)
	}
	// A higher link rate clears the contention.
	res = SolveTrace(tr, Config{LinkRate: 1}, pkts)
	if res.CommittedDelivered != 2 {
		t.Fatalf("committed schedule at budget 10: want 2 delivered, got %d", res.CommittedDelivered)
	}
}

// TestTTLMidPath: the only path reaches the destination at t=60; the
// packet is delivered iff it arrives strictly before expiry — TTL
// cutting the path mid-way flips the fate.
func TestTTLMidPath(t *testing.T) {
	tr := mkTrace(t, 2, 3,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
		[4]int64{1, 1, 40, 50},
		[4]int64{1, 2, 60, 70},
	)
	cfg := Config{LinkRate: 1}
	for _, tc := range []struct {
		expiry trace.Time
		fate   Fate
	}{
		{expiry: 100, fate: FateDelivered},
		{expiry: 61, fate: FateDelivered},
		{expiry: 60, fate: FateNoPath}, // arrival at 60 is not < 60
		{expiry: 45, fate: FateNoPath}, // expires while waiting at L1
	} {
		res := SolveTrace(tr, cfg, []Packet{{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: tc.expiry, Size: 1}})
		if got := res.Packets[0].Fate; got != tc.fate {
			t.Errorf("expiry %d: fate = %v, want %v", tc.expiry, got, tc.fate)
		}
		if tc.fate == FateDelivered {
			if got := res.Packets[0].EAT; got != 60 {
				t.Errorf("expiry %d: EAT = %d, want 60", tc.expiry, got)
			}
			if path := res.Path(&res.Packets[0]); !reflect.DeepEqual(path, []int{0, 1, 2}) {
				t.Errorf("expiry %d: path = %v, want [0 1 2]", tc.expiry, path)
			}
		}
	}
}

// TestWaitOverForward: an early carrier goes the slow way (arriving at
// t=200 via L1); waiting at the source for a later direct carrier
// arrives at t=60. The oracle must prefer waiting.
func TestWaitOverForward(t *testing.T) {
	tr := mkTrace(t, 2, 3,
		// Node 0: leaves L0 early, crawls to L1, reaches L2 at 200.
		[4]int64{0, 0, 0, 5},
		[4]int64{0, 1, 100, 110},
		[4]int64{0, 2, 200, 210},
		// Node 1: leaves L0 later but goes straight to L2 at 60.
		[4]int64{1, 0, 40, 50},
		[4]int64{1, 2, 60, 70},
	)
	res := SolveTrace(tr, Config{LinkRate: 1}, []Packet{
		{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: 1000, Size: 1},
	})
	pr := &res.Packets[0]
	if pr.Fate != FateDelivered || pr.EAT != 60 {
		t.Fatalf("want delivered at 60 (wait for the direct carrier), got %v at %d", pr.Fate, pr.EAT)
	}
	if path := res.Path(pr); !reflect.DeepEqual(path, []int{0, 2}) {
		t.Fatalf("path = %v, want the direct [0 2]", path)
	}
}

// TestSameLandmarkConsecutive: consecutive visits to the same landmark
// produce no contact edge — the node never left.
func TestSameLandmarkConsecutive(t *testing.T) {
	tr := mkTrace(t, 1, 2,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 0, 20, 30},
		[4]int64{0, 1, 40, 50},
	)
	g := Build(tr, Config{LinkRate: 1}, 1)
	if g.NumEdges() != 1 {
		t.Fatalf("want 1 edge (the L0->L1 transit), got %d", g.NumEdges())
	}
	// The packet can still ride the merged stay: boardable up to the
	// second visit's end (t=30).
	res := Solve(g, Config{LinkRate: 1}, []Packet{
		{ID: 0, Src: 0, Dst: 1, Created: 15, Expiry: 1000, Size: 1},
	})
	if pr := &res.Packets[0]; pr.Fate != FateDelivered || pr.EAT != 40 {
		t.Fatalf("want delivered at 40 via the merged stay, got %v at %d", pr.Fate, pr.EAT)
	}
}

// TestSizeGates: packets too big for node buffers (or the source
// station) are undeliverable no matter the contact structure.
func TestSizeGates(t *testing.T) {
	tr := mkTrace(t, 1, 2,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
	)
	pk := func(size int64) []Packet {
		return []Packet{{ID: 0, Src: 0, Dst: 1, Created: 0, Expiry: 100, Size: size}}
	}
	res := SolveTrace(tr, Config{LinkRate: 1, NodeMemory: 100}, pk(101))
	if res.Packets[0].Fate != FateTooBig {
		t.Fatalf("node-memory gate: got %v, want too-big", res.Packets[0].Fate)
	}
	res = SolveTrace(tr, Config{LinkRate: 1, NodeMemory: 100, StationMemory: 50}, pk(60))
	if res.Packets[0].Fate != FateTooBig {
		t.Fatalf("station-memory gate: got %v, want too-big", res.Packets[0].Fate)
	}
	res = SolveTrace(tr, Config{LinkRate: 1, NodeMemory: 100}, pk(100))
	if res.Packets[0].Fate != FateDelivered {
		t.Fatalf("fitting packet: got %v, want delivered", res.Packets[0].Fate)
	}
}

// TestStationLedger: with station storage for one packet, two packets
// whose waits overlap at an intermediate landmark cannot both commit.
func TestStationLedger(t *testing.T) {
	// Both packets must wait at L1 over the overlapping window [20,60).
	tr := mkTrace(t, 3, 3,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
		[4]int64{1, 0, 0, 12},
		[4]int64{1, 1, 22, 32},
		[4]int64{2, 1, 55, 58},
		[4]int64{2, 2, 60, 70},
	)
	pkts := []Packet{
		{ID: 0, Src: 0, Dst: 2, Created: 0, Expiry: 1000, Size: 40},
		{ID: 1, Src: 0, Dst: 2, Created: 0, Expiry: 1000, Size: 40},
	}
	// Station fits one 40-byte packet, not two.
	res := SolveTrace(tr, Config{LinkRate: 1, StationMemory: 60}, pkts)
	if res.Deliverable != 2 {
		t.Fatalf("relaxed bound ignores station storage: want 2, got %d", res.Deliverable)
	}
	if res.CommittedDelivered != 1 {
		t.Fatalf("committed: want 1 under station pressure, got %d", res.CommittedDelivered)
	}
	// Ample station storage commits both.
	res = SolveTrace(tr, Config{LinkRate: 1, StationMemory: 100}, pkts)
	if res.CommittedDelivered != 2 {
		t.Fatalf("committed: want 2 with room for both, got %d", res.CommittedDelivered)
	}
}

// TestBuildDeterminism: the parallel graph build must produce a
// bit-identical graph for every worker count, pinned by Fingerprint.
func TestBuildDeterminism(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	cfg := Config{LinkRate: 0.3}
	want := Build(tr, cfg, 1).Fingerprint()
	for _, workers := range []int{2, 3, 8, runtime.GOMAXPROCS(0)} {
		if got := Build(tr, cfg, workers).Fingerprint(); got != want {
			t.Fatalf("workers=%d: fingerprint %x != single-worker %x", workers, got, want)
		}
	}
}

// TestSolveDeterminism: the parallel relaxed solve must produce
// identical results (fates, arrival times, paths) for every worker
// count.
func TestSolveDeterminism(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	base := Config{LinkRate: 0.3}
	g := Build(tr, base, 0)
	var pkts []Packet
	for i := 0; i < 200; i++ {
		pkts = append(pkts, Packet{
			ID:      i,
			Src:     i % tr.NumLandmarks,
			Dst:     (i * 3) % tr.NumLandmarks,
			Created: trace.Time(i) * 3600,
			Expiry:  trace.Time(i)*3600 + 48*trace.Hour,
			Size:    1024,
		})
	}
	cfg := base
	cfg.Workers = 1
	want := Solve(g, cfg, pkts)
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		got := Solve(g, cfg, pkts)
		if !reflect.DeepEqual(want.Packets, got.Packets) {
			t.Fatalf("workers=%d: per-packet results diverged", workers)
		}
		if !reflect.DeepEqual(want.paths, got.paths) {
			t.Fatalf("workers=%d: path layout diverged", workers)
		}
		if want.Deliverable != got.Deliverable || want.CommittedDelivered != got.CommittedDelivered {
			t.Fatalf("workers=%d: counts diverged", workers)
		}
	}
}

// sortedBuild is the comparison-sorted build the bucket sort replaced,
// kept as the reference order: transits per node from VisitsByNode,
// one slices.SortFunc by (depart, arrive, from, to, depVis).
func sortedBuild(tr *trace.Trace, cfg Config) *Graph {
	type rawEdge struct {
		from, to       int32
		depart, arrive trace.Time
		depVis, arrVis int32
	}
	g := &Graph{L: tr.NumLandmarks}
	var es []rawEdge
	var id int32
	for _, vs := range tr.VisitsByNode() {
		for i, v := range vs {
			g.budget = append(g.budget, int32(visitBudget(v, cfg)))
			if i > 0 && vs[i-1].Landmark != v.Landmark {
				es = append(es, rawEdge{int32(vs[i-1].Landmark), int32(v.Landmark), vs[i-1].End, v.Start, id - 1, id})
			}
			id++
		}
	}
	slices.SortFunc(es, func(a, b rawEdge) int {
		return cmp.Or(cmp.Compare(a.depart, b.depart), cmp.Compare(a.arrive, b.arrive),
			cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.depVis, b.depVis))
	})
	for _, e := range es {
		g.from, g.to = append(g.from, e.from), append(g.to, e.to)
		g.depart, g.arrive = append(g.depart, e.depart), append(g.arrive, e.arrive)
		g.depVis, g.arrVis = append(g.depVis, e.depVis), append(g.arrVis, e.arrVis)
	}
	return g
}

// TestBuildOrderMatchesSort: the bucket-sorted build lays out exactly
// the columns and budgets of the comparison sort, on tie-heavy traces
// (equal departures and arrivals everywhere) and on a trace whose
// departures all fall in one bucket, for several worker counts.
func TestBuildOrderMatchesSort(t *testing.T) {
	check := func(name string, tr *trace.Trace, cfg Config) {
		t.Helper()
		want := sortedBuild(tr, cfg)
		for _, workers := range []int{1, 2, 3} {
			got := Build(tr, cfg, workers)
			if got.L != want.L || !slices.Equal(got.budget, want.budget) ||
				!slices.Equal(got.from, want.from) || !slices.Equal(got.to, want.to) ||
				!slices.Equal(got.depart, want.depart) || !slices.Equal(got.arrive, want.arrive) ||
				!slices.Equal(got.depVis, want.depVis) || !slices.Equal(got.arrVis, want.arrVis) {
				t.Fatalf("%s workers=%d: columns differ from the sorted build\nwant %+v\ngot  %+v", name, workers, want, got)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		check(fmt.Sprintf("ties round %d", round), tieTrace(rng), Config{LinkRate: 0.3, MaxContactTransfers: rng.Intn(3)})
	}

	// One outlier visit end stretches the span so far that a bucket is
	// wider than every other departure: they all share bucket 0, well
	// past the 12 connections sort.Sort orders by insertion.
	skew := &trace.Trace{Name: "skew", NumNodes: 12, NumLandmarks: 3}
	for n := 0; n < skew.NumNodes; n++ {
		for v := 0; v < 4; v++ {
			t0 := trace.Time(10*v + n%3)
			skew.Visits = append(skew.Visits, trace.Visit{Node: n, Landmark: (n + v) % 3, Start: t0, End: t0 + 5})
		}
	}
	skew.Visits = append(skew.Visits, trace.Visit{Node: 0, Landmark: 1, Start: 50, End: 1 << 40})
	skew.SortVisits()
	if err := skew.Validate(); err != nil {
		t.Fatal(err)
	}
	if m := sortedBuild(skew, Config{}).NumEdges(); m <= 12 {
		t.Fatalf("skewed trace has %d connections; want a bucket past sort.Sort's insertion-sort size (12)", m)
	}
	check("skew", skew, Config{LinkRate: 1})
}

// TestCommitReplayBranches: the commit replays a packet's relaxed scan
// while no visit has run out of budget, searches from the first one that
// has on, never replays under a station limit or in the reference, and
// never reaches a packet with no relaxed path — on a hand-built
// contention case and on budget-binding tie-heavy traces.
func TestCommitReplayBranches(t *testing.T) {
	var replayed, searched []int
	commitHook = func(i int, r bool) {
		if r {
			if len(searched) > 0 {
				t.Errorf("packet %d replayed after a search", i)
			}
			replayed = append(replayed, i)
		} else {
			searched = append(searched, i)
		}
	}
	defer func() { commitHook = nil }()

	// L0 -> L1 departs at 10 with budget 1 per visit; L2 -> L1 departs
	// at 100 with budget 5.
	tr := mkTrace(t, 2, 3,
		[4]int64{0, 0, 0, 10},
		[4]int64{0, 1, 20, 30},
		[4]int64{1, 2, 0, 100},
		[4]int64{1, 1, 200, 300},
	)
	res := SolveTrace(tr, Config{LinkRate: 0.05}, []Packet{
		{ID: 0, Src: 0, Dst: 1, Created: 0, Expiry: 1000, Size: 1},  // replays, runs L0 -> L1's visits out
		{ID: 1, Src: 0, Dst: 1, Created: 1, Expiry: 1000, Size: 1},  // searches, fails
		{ID: 2, Src: 2, Dst: 1, Created: 50, Expiry: 1000, Size: 1}, // searches, takes L2 -> L1
		{ID: 3, Src: 0, Dst: 1, Created: 40, Expiry: 1000, Size: 1}, // no path
		{ID: 4, Src: 9, Dst: 9, Created: 60, Expiry: 1000, Size: 1}, // delivered at generation, outside the trace
	})
	if !slices.Equal(replayed, []int{0}) || !slices.Equal(searched, []int{1, 2}) {
		t.Fatalf("replayed %v, searched %v; want [0] and [1 2]", replayed, searched)
	}
	if got := []bool{res.Packets[0].Committed, res.Packets[1].Committed, res.Packets[2].Committed}; !slices.Equal(got, []bool{true, false, true}) {
		t.Fatalf("committed %v, want [true false true]", got)
	}
	if pr := res.Packets[2]; pr.CommitEAT != 200 || res.Packets[3].Fate != FateNoPath {
		t.Fatalf("packet 2 commits at %d (want 200), packet 3 is %v (want no-path)", pr.CommitEAT, res.Packets[3].Fate)
	}
	if pr := res.Packets[4]; !pr.Committed || pr.CommitEAT != 60 {
		t.Fatalf("same-landmark packet: committed %v at %d, want true at 60", pr.Committed, pr.CommitEAT)
	}

	// A budget past int32 wraps negative, so the visit is out from the
	// start: the commit searches, as the reference does.
	wrap := Config{LinkRate: 3e8} // 10 s visits: 3e9 transfers
	pkts := []Packet{{ID: 0, Src: 0, Dst: 1, Created: 0, Expiry: 1000, Size: 1}}
	replayed, searched = nil, nil
	res = SolveTrace(tr, wrap, pkts)
	if len(replayed) != 0 {
		t.Fatalf("wrapped budget: replayed %v, want a search", replayed)
	}
	var want *Result
	withReference(func() { want = SolveTrace(tr, wrap, pkts) })
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("wrapped budget: committed %v, reference %v", res.Packets[0].Committed, want.Packets[0].Committed)
	}

	rng := rand.New(rand.NewSource(23))
	var nReplayed, nSearched int
	for round := 0; round < 300; round++ {
		replayed, searched = nil, nil
		tr := tieTrace(rng)
		var pkts []Packet
		for i := 0; i < 2+rng.Intn(12); i++ {
			created := trace.Time(rng.Intn(16))
			pkts = append(pkts, Packet{ID: i, Src: rng.Intn(tr.NumLandmarks), Dst: rng.Intn(tr.NumLandmarks),
				Created: created, Expiry: created + 1 + trace.Time(rng.Intn(20)), Size: 1})
		}
		cfg := Config{LinkRate: []float64{0, 0.3}[rng.Intn(2)], MaxContactTransfers: rng.Intn(3)}
		res := SolveTrace(tr, cfg, pkts)
		for _, i := range append(replayed, searched...) {
			if res.Packets[i].Fate == FateNoPath {
				t.Fatalf("round %d: packet %d has no relaxed path but reached the commit", round, i)
			}
		}
		nReplayed += len(replayed)
		nSearched += len(searched)

		replayed, searched = nil, nil
		withReference(func() { SolveTrace(tr, cfg, pkts) })
		cfg.StationMemory = 1 + int64(rng.Intn(3))
		SolveTrace(tr, cfg, pkts)
		if len(replayed) != 0 {
			t.Fatalf("round %d: the reference or a station limit replayed %v", round, replayed)
		}
	}
	if nReplayed == 0 || nSearched == 0 {
		t.Fatalf("tie traces: %d replayed, %d searched; want both branches", nReplayed, nSearched)
	}
}
