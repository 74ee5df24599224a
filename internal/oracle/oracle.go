// Package oracle is the offline optimal router: an independent, second
// implementation of the simulator's physics that answers, for every
// packet, "what is the best any store-and-forward method could have
// done on this trace?". It is both the yardstick every report can cite
// (an upper bound beside the six methods) and a standing differential
// test — validate's oracle-dominance property checks every engine run
// against it.
//
// The oracle works on the time-expanded contact graph: each transit a
// node makes between consecutive visits to different landmarks is one
// contact edge (pickup any time up to the departure visit's end, arrival
// at the next visit's start), and holding a packet at a landmark station
// between two edges is an implicit wait edge. Two answers are computed
// per packet (see Solve):
//
//   - The relaxed earliest-arrival bound: a per-packet connection scan
//     with capacities ignored. This is a true upper bound on every
//     method — any sequence of engine transfers that delivers a packet
//     maps, visit by visit, onto a chain of contact edges the search
//     also considers (see DESIGN.md "Oracle architecture" for the
//     induction) — so dominance against it is a theorem, not a
//     heuristic, and regret measured against it is never negative.
//   - The capacity-respecting committed schedule: packets routed in
//     generation order, each consuming residual per-visit transfer
//     budget (the engine's contactBudget formula) and station storage,
//     so the committed delivery count is a feasible schedule, not a
//     bound.
//
// The graph build is parallel over nodes and deterministic: equal
// traces produce bit-identical graphs for every worker count
// (Fingerprint pins this in tests).
package oracle

import (
	"cmp"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Config mirrors the engine physics the oracle enforces. ConfigFrom
// derives one from a sim.Config; the zero value means "no constraint"
// for every field except LinkRate (0 still yields the engine's minimum
// budget of one transfer per visit).
type Config struct {
	// PacketSize and NodeMemory gate deliverability: a packet larger
	// than every node buffer can never be carried (NodeMemory <= 0 =
	// unlimited).
	NodeMemory int64
	// StationMemory bounds the wait edges in the committed schedule and
	// gates generation (a packet that cannot enter its source station is
	// undeliverable); <= 0 = unlimited, the paper's setting.
	StationMemory int64
	// LinkRate (packets/second) and MaxContactTransfers derive each
	// visit's transfer budget exactly as the engine does:
	// max(1, LinkRate*duration), capped when MaxContactTransfers > 0.
	LinkRate            float64
	MaxContactTransfers int
	// Workers bounds the parallel graph build; <= 0 = GOMAXPROCS.
	Workers int
	// SkipCommitted computes only the relaxed bound (regret joins and
	// dominance checks need nothing else and skip the expensive part).
	SkipCommitted bool
}

// Graph is the time-expanded contact graph of one trace: every transit
// is one connection, stored columnar and sorted by (depart, arrive,
// from, to, depVis). depart is the last pickup instant (the departure
// visit's end), arrive the arrival instant (the arrival visit's start);
// depVis/arrVis identify the two visits whose transfer budgets the
// committed schedule charges.
type Graph struct {
	L              int // number of landmarks
	from, to       []int32
	depart, arrive []trace.Time
	depVis, arrVis []int32
	// budget[v] is the transfer budget of visit v (global visit index in
	// node-major, time-ascending order), the engine's contactBudget.
	budget []int32
}

// NumEdges returns the number of contact edges (transits) in the graph.
func (g *Graph) NumEdges() int { return len(g.depart) }

// rawEdge is one transit during the build, before the columnar split.
type rawEdge struct {
	from, to       int32
	depart, arrive trace.Time
	depVis, arrVis int32
}

// Build constructs the contact graph from a trace. The build is
// parallel over nodes (workers <= 0 = GOMAXPROCS) and deterministic:
// every worker count yields a bit-identical graph, because each node's
// edges land in a preassigned slot and the final ordering is a strict
// total order (depart, arrive, from, to, departure-visit id — visit ids
// are globally unique, so ties cannot reorder).
func Build(tr *trace.Trace, cfg Config, workers int) *Graph {
	byNode := tr.VisitsByNode()

	// Global visit ids: node-major, time-ascending — independent of
	// worker count. offsets[n] is node n's first id.
	offsets := make([]int32, len(byNode)+1)
	for n, vs := range byNode {
		offsets[n+1] = offsets[n] + int32(len(vs))
	}
	g := &Graph{L: tr.NumLandmarks}
	g.budget = make([]int32, offsets[len(byNode)])

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(byNode) {
		workers = len(byNode)
	}
	if workers < 1 {
		workers = 1
	}

	// Each worker fills its nodes' budget entries and writes its nodes'
	// transits into their own slots of es: a node with k visits makes at
	// most k-1 transits, so node n owns es[offsets[n]:offsets[n+1]] and
	// count[n] says how many it used.
	es := make([]rawEdge, offsets[len(byNode)])
	count := make([]int32, len(byNode))
	var wg sync.WaitGroup
	next := make(chan int, len(byNode))
	for n := range byNode {
		next <- n
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range next {
				vs := byNode[n]
				base := offsets[n]
				for i, v := range vs {
					g.budget[base+int32(i)] = int32(visitBudget(v, cfg))
				}
				out := es[base:base]
				for i := 1; i < len(vs); i++ {
					// Consecutive same-landmark visits produce no edge
					// (the node never left; a packet at the landmark
					// waits on its station either way).
					prev, cur := vs[i-1], vs[i]
					if prev.Landmark == cur.Landmark {
						continue
					}
					out = append(out, rawEdge{
						from:   int32(prev.Landmark),
						to:     int32(cur.Landmark),
						depart: prev.End,
						arrive: cur.Start,
						depVis: base + int32(i-1),
						arrVis: base + int32(i),
					})
				}
				count[n] = int32(len(out))
			}
		}()
	}
	wg.Wait()

	// Deterministic merge: compact in node order, then sort by the
	// connection order the scan relies on.
	m := 0
	for n := range byNode {
		m += copy(es[m:], es[offsets[n]:offsets[n]+count[n]])
	}
	es = es[:m]
	slices.SortFunc(es, func(a, b rawEdge) int {
		if c := cmp.Compare(a.depart, b.depart); c != 0 {
			return c
		}
		if c := cmp.Compare(a.arrive, b.arrive); c != 0 {
			return c
		}
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.depVis, b.depVis)
	})
	g.from, g.to = make([]int32, m), make([]int32, m)
	g.depart, g.arrive = make([]trace.Time, m), make([]trace.Time, m)
	g.depVis, g.arrVis = make([]int32, m), make([]int32, m)
	for i, e := range es {
		g.from[i], g.to[i] = e.from, e.to
		g.depart[i], g.arrive[i] = e.depart, e.arrive
		g.depVis[i], g.arrVis[i] = e.depVis, e.arrVis
	}
	return g
}

// visitBudget is the engine's contactBudget formula: the number of
// transfers a visit of this duration allows.
func visitBudget(v trace.Visit, cfg Config) int {
	b := int(cfg.LinkRate * float64(v.End-v.Start))
	if b < 1 {
		b = 1
	}
	if cfg.MaxContactTransfers > 0 && b > cfg.MaxContactTransfers {
		b = cfg.MaxContactTransfers
	}
	return b
}

// maxTime is past every trace timestamp.
const maxTime = trace.Time(1) << 62

// Fingerprint hashes the graph's full structure (connections, edge
// times, visit ids, budgets). Two builds of the same trace must produce
// equal fingerprints regardless of worker count — the determinism tests
// pin this.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(uint64(g.L))
	for _, b := range g.budget {
		w64(uint64(b))
	}
	for i := range g.depart {
		w64(uint64(g.from[i]))
		w64(uint64(g.to[i]))
		w64(uint64(g.depart[i]))
		w64(uint64(g.arrive[i]))
		w64(uint64(g.depVis[i]))
		w64(uint64(g.arrVis[i]))
	}
	return h.Sum64()
}

// searcher runs earliest-arrival connection scans over one graph,
// reusing its label arrays across packets; dist is maxTime on landmarks
// the last scan never labelled. One searcher serves one goroutine.
//
// Besides the earliest arrival, a scan reproduces the parent tree of a
// label-setting search that settles landmarks in label order, equal
// labels lowest id first among those labelled so far, and replaces a
// label only on strict improvement: a landmark's parent is the
// in-neighbour settled first among those whose usable connection
// arrives exactly at its label, and its charged connection is that
// neighbour's first such connection in scan order. rank holds the
// settle order among equal labels: the id, unless zero-duration
// connections chain landmarks at that label, when scanZero replays it.
type searcher struct {
	g      *Graph
	dist   []trace.Time
	parent []int32 // previous landmark on the best path; -1 at the source
	via    []int32 // connection into this landmark on the best path
	rank   []int32

	// Committed-mode residual budgets; nil in relaxed searches.
	residual []int32
}

func newSearcher(g *Graph) *searcher {
	return &searcher{
		g:      g,
		dist:   make([]trace.Time, g.L),
		parent: make([]int32, g.L),
		via:    make([]int32, g.L),
		rank:   make([]int32, g.L),
	}
}

func (s *searcher) setLabel(lm int32, t trace.Time, from, via int32) {
	s.dist[lm] = t
	s.parent[lm] = from
	s.via[lm] = via
	s.rank[lm] = lm
}

// settlesBefore reports whether landmark u settles before landmark p.
// (A tie never reaches the source: anything offered to it arrives after
// t0, so p is always a landmark.)
func (s *searcher) settlesBefore(u, p int32) bool {
	if s.dist[u] != s.dist[p] {
		return s.dist[u] < s.dist[p]
	}
	return s.rank[u] < s.rank[p]
}

// usable reports whether connection k can carry the packet: its source
// is labelled by its departure, it arrives before the deadline and, in
// committed mode, both its visits have residual budget.
func (s *searcher) usable(k int, deadline trace.Time) bool {
	g := s.g
	u := g.from[k]
	return s.dist[u] <= g.depart[k] && g.arrive[k] < deadline &&
		(s.residual == nil || s.residual[g.depVis[k]] > 0 && s.residual[g.arrVis[k]] > 0)
}

// offer relaxes connection k's head with its arrival, keeping the
// settle-order parent on ties.
func (s *searcher) offer(k int) {
	g := s.g
	u, v, a := g.from[k], g.to[k], g.arrive[k]
	if a < s.dist[v] {
		s.setLabel(v, a, u, int32(k))
	} else if a == s.dist[v] && s.settlesBefore(u, s.parent[v]) {
		s.parent[v] = u
		s.via[v] = int32(k)
	}
}

// search is the earliest-arrival search every solve runs. It is a
// variable so the differential test can swap in its label-setting
// reference.
var search = (*searcher).scan

func (s *searcher) run(src int, t0 trace.Time, dst int, deadline trace.Time) (trace.Time, bool) {
	return search(s, src, t0, dst, deadline)
}

// scan performs the earliest-arrival scan from (src, t0) and returns
// dst's earliest arrival, or (0, false) when no arrival strictly before
// deadline exists. The scan starts at the first connection departing
// at or after t0 and stops at the first connection departing at or
// after min(EA(dst), deadline) — except the zero-duration connections
// at EA(dst) itself, which can still supply dst's parent on a tie.
func (s *searcher) scan(src int, t0 trace.Time, dst int, deadline trace.Time) (trace.Time, bool) {
	g := s.g
	for i := range s.dist {
		s.dist[i] = maxTime
	}
	s.setLabel(int32(src), t0, -1, -1)
	best, limit := maxTime, deadline
	for k, _ := slices.BinarySearch(g.depart, t0); k < len(g.depart); {
		d := g.depart[k]
		if d >= limit && (d != best || g.arrive[k] != d) {
			break
		}
		if g.arrive[k] == d {
			k = s.scanZero(k, deadline)
		} else {
			if s.usable(k, deadline) {
				s.offer(k)
			}
			k++
		}
		if s.dist[dst] < best {
			best = s.dist[dst]
			limit = min(best, deadline)
		}
	}
	if best == maxTime {
		return 0, false
	}
	return best, true
}

// scanZero handles the block of zero-duration connections at time T =
// depart[k] and returns the index past it. Landmarks labelled before T
// relax the block like any connection. Landmarks labelled exactly T
// relax each other in settle order, so when any of them can use the
// block, the settle order is replayed: the lowest-ranked unsettled
// landmark at T settles next, and its block connections label the
// landmarks still above T.
func (s *searcher) scanZero(k int, deadline trace.Time) int {
	g := s.g
	t := g.depart[k]
	end := k
	for end < len(g.depart) && g.depart[end] == t && g.arrive[end] == t {
		end++
	}
	for i := k; i < end; i++ {
		if s.usable(i, deadline) && s.dist[g.from[i]] < t {
			s.offer(i)
		}
	}
	chained := false
	for i := k; i < end && !chained; i++ {
		chained = s.usable(i, deadline) && s.dist[g.from[i]] == t
	}
	if !chained {
		return end
	}
	var q []int32
	for lm := range g.L {
		if s.dist[lm] == t {
			q = append(q, int32(lm))
		}
	}
	for pos := int32(0); len(q) > 0; pos++ {
		m := 0
		for j := range q {
			if s.rank[q[j]] < s.rank[q[m]] {
				m = j
			}
		}
		u := q[m]
		q[m] = q[len(q)-1]
		q = q[:len(q)-1]
		s.rank[u] = pos
		for i := k; i < end; i++ {
			if v := g.to[i]; g.from[i] == u && s.usable(i, deadline) && s.dist[v] > t {
				s.setLabel(v, t, u, int32(i))
				q = append(q, v)
			}
		}
	}
	return end
}

// path reconstructs the landmark path src..dst of the last run (dst must
// have been labelled), appended to dst's slice.
func (s *searcher) path(dst int, out []int) []int {
	n := 0
	for lm := int32(dst); lm >= 0; lm = s.parent[lm] {
		n++
	}
	base := len(out)
	out = append(out, make([]int, n)...)
	lm := int32(dst)
	for i := n - 1; i >= 0; i-- {
		out[base+i] = int(lm)
		lm = s.parent[lm]
	}
	return out
}
