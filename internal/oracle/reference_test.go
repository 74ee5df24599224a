package oracle

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The label-setting reference: the oracle's original search, kept as a
// test-only twin of the connection scan. Every (from, to) pair's edges
// form a columnar group sorted by (depart, arrive, depVis) with a minArr
// suffix minimum; a Dijkstra-style search settles landmarks in (label,
// id) order from a binary heap and replaces a label only on strict
// improvement. The differential test requires the scan to reproduce its
// answers, paths and committed charges exactly.

// edgeGroup holds every connection from one landmark to one other
// landmark. conn[i] is the connection's index in the Graph columns.
type edgeGroup struct {
	to     int32
	depart []trace.Time
	arrive []trace.Time
	minArr []trace.Time
	conn   []int32
}

// refGroups caches each graph's adjacency (*Graph -> [][]edgeGroup).
var refGroups sync.Map

func refAdjacency(g *Graph) [][]edgeGroup {
	if adj, ok := refGroups.Load(g); ok {
		return adj.([][]edgeGroup)
	}
	byFrom := make([][]int32, g.L)
	for k := range g.depart {
		byFrom[g.from[k]] = append(byFrom[g.from[k]], int32(k))
	}
	adj := make([][]edgeGroup, g.L)
	for from, ks := range byFrom {
		slices.SortFunc(ks, func(a, b int32) int {
			switch {
			case g.to[a] != g.to[b]:
				return int(g.to[a] - g.to[b])
			case g.depart[a] != g.depart[b]:
				return int(g.depart[a] - g.depart[b])
			case g.arrive[a] != g.arrive[b]:
				return int(g.arrive[a] - g.arrive[b])
			}
			return int(g.depVis[a] - g.depVis[b])
		})
		for i := 0; i < len(ks); {
			j := i
			for j < len(ks) && g.to[ks[j]] == g.to[ks[i]] {
				j++
			}
			grp := edgeGroup{to: g.to[ks[i]], conn: ks[i:j]}
			for _, k := range grp.conn {
				grp.depart = append(grp.depart, g.depart[k])
				grp.arrive = append(grp.arrive, g.arrive[k])
			}
			grp.minArr = make([]trace.Time, j-i)
			min := maxTime
			for x := j - i - 1; x >= 0; x-- {
				if grp.arrive[x] < min {
					min = grp.arrive[x]
				}
				grp.minArr[x] = min
			}
			adj[from] = append(adj[from], grp)
			i = j
		}
	}
	refGroups.Store(g, adj)
	return adj
}

type heapItem struct {
	t  trace.Time
	lm int32
}

// heapLess orders by label time, ties by landmark id.
func heapLess(a, b heapItem) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.lm < b.lm
}

func pushHeap(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !heapLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func popHeap(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && heapLess(h[l], h[m]) {
			m = l
		}
		if r < len(h) && heapLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			return top, h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// refSearch is the label-setting search, writing the same label state
// (dist, parent, via) the scan writes.
func refSearch(s *searcher, src int, t0 trace.Time, dst int, deadline trace.Time) (trace.Time, bool) {
	adj := refAdjacency(s.g)
	for i := range s.dist {
		s.dist[i] = maxTime
	}
	relax := func(h []heapItem, lm int32, t trace.Time, from, via int32) []heapItem {
		if s.dist[lm] <= t {
			return h
		}
		s.dist[lm], s.parent[lm], s.via[lm] = t, from, via
		return pushHeap(h, heapItem{t: t, lm: lm})
	}
	h := relax(nil, int32(src), t0, -1, -1)
	for len(h) > 0 {
		var it heapItem
		it, h = popHeap(h)
		if s.dist[it.lm] != it.t {
			continue // stale entry
		}
		if int(it.lm) == dst {
			return it.t, true
		}
		for gi := range adj[it.lm] {
			grp := &adj[it.lm][gi]
			i, _ := slices.BinarySearch(grp.depart, it.t)
			if i == len(grp.depart) {
				continue
			}
			if s.residual == nil {
				if a := grp.minArr[i]; a < deadline {
					h = relax(h, grp.to, a, it.lm, -1)
				}
				continue
			}
			// Committed mode: the first minimum-arrival edge whose two
			// visits both have residual budget.
			best, bi := maxTime, -1
			for k := i; k < len(grp.depart); k++ {
				if best <= grp.minArr[k] {
					break
				}
				c := grp.conn[k]
				if grp.arrive[k] >= best || grp.arrive[k] >= deadline ||
					s.residual[s.g.depVis[c]] < 1 || s.residual[s.g.arrVis[c]] < 1 {
					continue
				}
				best, bi = grp.arrive[k], k
			}
			if bi >= 0 {
				h = relax(h, grp.to, best, it.lm, grp.conn[bi])
			}
		}
	}
	return 0, false
}

// withReference runs fn with the label-setting reference as the search,
// which every committed packet then runs: nothing is replayed.
func withReference(fn func()) {
	search, replayRelaxed = refSearch, false
	defer func() { search, replayRelaxed = (*searcher).scan, true }()
	fn()
}

// tieTrace builds a valid tiny trace whose times are small integers, so
// equal labels, equal departures and zero-duration visits and transits
// are common. (A zero-duration visit followed at once by another visit
// of the same node can sort out of order; such draws are rejected.)
func tieTrace(rng *rand.Rand) *trace.Trace {
	for {
		tr := &trace.Trace{Name: "ties", NumNodes: 2 + rng.Intn(5), NumLandmarks: 2 + rng.Intn(4)}
		for n := 0; n < tr.NumNodes; n++ {
			t := trace.Time(rng.Intn(4))
			for v := 3 + rng.Intn(8); v > 0; v-- {
				end := t + trace.Time(rng.Intn(3))
				tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: rng.Intn(tr.NumLandmarks), Start: t, End: end})
				t = end + trace.Time(rng.Intn(3))
			}
		}
		tr.SortVisits()
		if tr.Validate() == nil {
			return tr
		}
	}
}

// tieLog is a synthetic recording over tr: generations, chosen
// decisions with alternatives, and deliveries at small integer times.
func tieLog(rng *rand.Rand, tr *trace.Trace, pkts []Packet) *telemetry.Log {
	log := &telemetry.Log{Meta: telemetry.Meta{TTL: 12, PacketSize: 1}}
	L := int32(tr.NumLandmarks)
	for _, p := range pkts {
		log.Events = append(log.Events, telemetry.Event{T: p.Created, Kind: telemetry.EvGenerated,
			Pkt: int32(p.ID), A: int32(p.Src), B: int32(p.Dst)})
	}
	for i := 0; i < 3*len(pkts); i++ {
		p := pkts[rng.Intn(len(pkts))]
		ev := telemetry.Event{T: p.Created + trace.Time(rng.Intn(8)), Kind: telemetry.EvDecision,
			Pkt: int32(p.ID), A: rng.Int31n(L), B: rng.Int31n(L)}
		log.Events = append(log.Events, ev)
		for r := int32(1); r <= rng.Int31n(3); r++ {
			alt := ev
			alt.B, alt.Aux = rng.Int31n(L), r
			log.Events = append(log.Events, alt)
		}
		if rng.Intn(4) == 0 {
			log.Events = append(log.Events, telemetry.Event{T: ev.T + trace.Time(rng.Intn(6)),
				Kind: telemetry.EvDelivered, Pkt: int32(p.ID), A: int32(p.Dst)})
		}
	}
	return log
}

// TestScanMatchesReference: on randomized tie-heavy tiny traces with
// budget-binding link rates and a small station memory, the connection
// scan must reproduce the label-setting reference exactly — fates,
// arrival times, paths, committed decisions and arrivals, and the
// regret report.
func TestScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rounds := 3000
	if testing.Short() {
		rounds = 500
	}
	for round := 0; round < rounds; round++ {
		tr := tieTrace(rng)
		cfg := Config{
			LinkRate:            []float64{0, 0.3, 1}[rng.Intn(3)],
			MaxContactTransfers: rng.Intn(3),
			StationMemory:       int64(rng.Intn(4)),
			Workers:             1 + rng.Intn(3),
		}
		var pkts []Packet
		for i := 0; i < 2+rng.Intn(12); i++ {
			created := trace.Time(rng.Intn(16))
			pkts = append(pkts, Packet{
				ID: i, Src: rng.Intn(tr.NumLandmarks), Dst: rng.Intn(tr.NumLandmarks),
				Created: created, Expiry: created + 1 + trace.Time(rng.Intn(20)), Size: 1,
			})
		}
		got := SolveTrace(tr, cfg, pkts)
		log := tieLog(rng, tr, pkts)
		gotRep := Regret(log, tr, cfg)
		var want *Result
		var wantRep *RegretReport
		withReference(func() {
			want = SolveTrace(tr, cfg, pkts)
			wantRep = Regret(log, tr, cfg)
		})
		for i := range want.Packets {
			w, g := &want.Packets[i], &got.Packets[i]
			if w.Fate != g.Fate || w.EAT != g.EAT || w.Committed != g.Committed || w.CommitEAT != g.CommitEAT ||
				!reflect.DeepEqual(want.Path(w), got.Path(g)) {
				t.Fatalf("round %d packet %+v:\nreference %+v path %v\nscan      %+v path %v\ntrace %+v",
					round, pkts[i], *w, want.Path(w), *g, got.Path(g), tr.Visits)
			}
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: results diverged beyond the per-packet fields", round)
		}
		if !reflect.DeepEqual(wantRep, gotRep) {
			t.Fatalf("round %d: regret diverged:\nreference %+v\nscan      %+v", round, wantRep, gotRep)
		}
	}
}
