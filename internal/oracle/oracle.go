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
// The graph build is parallel over departure buckets and deterministic:
// equal traces produce bit-identical graphs for every worker count
// (Fingerprint pins this in tests).
package oracle

import (
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
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

// Build constructs the contact graph from a trace. Visit ids are
// node-major and time-ascending: per-node visit counts give each node's
// first id, and a walk over tr.Visits numbers the rest (visits with an
// out-of-range node are skipped). Transits are counting-sorted by
// departure bucket straight into the columns, then each bucket is
// ordered by (depart, arrive, from, to, departure-visit id) — parallel
// over buckets (workers <= 0 = GOMAXPROCS). Visit ids are unique, so
// the order is a strict total order and every worker count yields a
// bit-identical graph.
func Build(tr *trace.Trace, cfg Config, workers int) *Graph {
	g := &Graph{L: tr.NumLandmarks}
	nodes := tr.NumNodes
	inRange := func(v *trace.Visit) bool { return v.Node >= 0 && v.Node < nodes }

	// Pass 1: per-node counts (first[n+1]), and the range of visit ends,
	// which holds every departure.
	first := make([]int32, nodes+1)
	lo, hi := maxTime, -maxTime
	for i := range tr.Visits {
		if v := &tr.Visits[i]; inRange(v) {
			first[v.Node+1]++
			lo, hi = min(lo, v.End), max(hi, v.End)
		}
	}
	for n := range nodes {
		first[n+1] += first[n]
	}
	nv := first[nodes]
	g.budget = make([]int32, nv)

	// About one departure bucket per visit: bucket(d) = (d-lo) >> shift.
	var shift uint
	for nv > 0 && uint64(hi-lo)>>shift >= uint64(nv) {
		shift++
	}
	nb := 1
	if nv > 0 {
		nb = int(uint64(hi-lo)>>shift) + 1
	}
	bucket := func(d trace.Time) int { return int(uint64(d-lo) >> shift) }

	// walk numbers every in-range visit and calls fn with its id and its
	// node's previous visit (nil for the node's first).
	next := make([]int32, nodes)
	last := make([]int32, nodes)
	walk := func(fn func(id int32, v, prev *trace.Visit)) {
		copy(next, first)
		for n := range last {
			last[n] = -1
		}
		for i := range tr.Visits {
			v := &tr.Visits[i]
			if !inRange(v) {
				continue
			}
			id := next[v.Node]
			next[v.Node]++
			var prev *trace.Visit
			if p := last[v.Node]; p >= 0 {
				prev = &tr.Visits[p]
			}
			last[v.Node] = int32(i)
			fn(id, v, prev)
		}
	}
	// Consecutive same-landmark visits produce no edge (the node never
	// left; a packet at the landmark waits on its station either way).
	transit := func(v, prev *trace.Visit) bool { return prev != nil && prev.Landmark != v.Landmark }

	// Pass 2: budgets, and the transits per bucket (end[b+1]), prefixed
	// into each bucket's first slot.
	end := make([]int32, nb+1)
	walk(func(id int32, v, prev *trace.Visit) {
		g.budget[id] = int32(visitBudget(*v, cfg))
		if transit(v, prev) {
			end[bucket(prev.End)+1]++
		}
	})
	for b := range nb {
		end[b+1] += end[b]
	}
	m := int(end[nb])
	g.from, g.to = make([]int32, m), make([]int32, m)
	g.depart, g.arrive = make([]trace.Time, m), make([]trace.Time, m)
	g.depVis, g.arrVis = make([]int32, m), make([]int32, m)

	// Pass 3: scatter each transit into its bucket. Afterwards end[b] is
	// bucket b's end, and bucket b spans [end[b-1], end[b]) (from 0 for
	// bucket 0).
	walk(func(id int32, v, prev *trace.Visit) {
		if !transit(v, prev) {
			return
		}
		b := bucket(prev.End)
		k := end[b]
		end[b]++
		g.from[k], g.to[k] = int32(prev.Landmark), int32(v.Landmark)
		g.depart[k], g.arrive[k] = prev.End, v.Start
		g.depVis[k], g.arrVis[k] = id-1, id
	})

	// Order each bucket, the buckets split over workers by connection
	// count.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, nb))
	var wg sync.WaitGroup
	for w := range workers {
		b0, _ := slices.BinarySearch(end[:nb], int32(w*m/workers))
		b1, _ := slices.BinarySearch(end[:nb], int32((w+1)*m/workers))
		if w == workers-1 {
			b1 = nb
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &connRange{g: g}
			for b := b0; b < b1; b++ {
				r.lo, r.hi = 0, int(end[b])
				if b > 0 {
					r.lo = int(end[b-1])
				}
				sort.Sort(r)
			}
		}()
	}
	wg.Wait()
	return g
}

// less reports whether connection i precedes connection j in scan
// order.
func (g *Graph) less(i, j int) bool {
	if g.depart[i] != g.depart[j] {
		return g.depart[i] < g.depart[j]
	}
	if g.arrive[i] != g.arrive[j] {
		return g.arrive[i] < g.arrive[j]
	}
	if g.from[i] != g.from[j] {
		return g.from[i] < g.from[j]
	}
	if g.to[i] != g.to[j] {
		return g.to[i] < g.to[j]
	}
	return g.depVis[i] < g.depVis[j]
}

func (g *Graph) swap(i, j int) {
	g.from[i], g.from[j] = g.from[j], g.from[i]
	g.to[i], g.to[j] = g.to[j], g.to[i]
	g.depart[i], g.depart[j] = g.depart[j], g.depart[i]
	g.arrive[i], g.arrive[j] = g.arrive[j], g.arrive[i]
	g.depVis[i], g.depVis[j] = g.depVis[j], g.depVis[i]
	g.arrVis[i], g.arrVis[j] = g.arrVis[j], g.arrVis[i]
}

// connRange is connections [lo, hi) as a sort.Interface, ordered by
// (depart, arrive, from, to, depVis). sort.Sort insertion-sorts the
// small ranges most buckets are and keeps a skewed bucket from going
// quadratic.
type connRange struct {
	g      *Graph
	lo, hi int
}

func (r *connRange) Len() int           { return r.hi - r.lo }
func (r *connRange) Less(i, j int) bool { return r.g.less(r.lo+i, r.lo+j) }
func (r *connRange) Swap(i, j int)      { r.g.swap(r.lo+i, r.lo+j) }

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
	k, _ := slices.BinarySearch(g.depart, t0)
	for k < len(g.depart) {
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
