package baselines

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// PER adapts Yuan, Cardei & Wu's predict-and-relay routing: a node's past
// transits and sojourns form a time-homogeneous semi-Markov model, from
// which PER estimates the probability that the node visits the destination
// landmark before a deadline (here: the packet's TTL horizon). The score
// changes every time the node moves, so packets are re-forwarded
// frequently — PER's forwarding cost is the highest of the six methods
// (Section V-A.2).
type PER struct {
	trans    [][]transRow // node -> landmark -> next-landmark counts
	stepSum  []trace.Time // node -> accumulated sojourn+travel time
	stepCnt  []int
	mean     []trace.Time // node -> stepSum/stepCnt, trace.Day before any transit
	last     []int
	lastTime []trace.Time

	// cache: hitting probabilities from each node's current landmark, one
	// vector over destinations per step bucket, stored flat (bucket b at
	// [b*L, (b+1)*L)). cacheUpTo counts the valid buckets, 0..perBuckets;
	// every visit resets it. The slice is allocated on the node's first
	// Score, so warmed snapshots, which make no Score calls, carry none.
	cache     [][]float64
	cacheUpTo []int

	// scratch buffers for hitting.
	occ, nxt           []float64
	active, nextActive []int
}

// transRow holds one landmark's observed next-landmark transition counts
// as parallel slices. A row has few distinct successors, so linear scans
// beat a map — and, unlike map iteration, their order is deterministic,
// which the hitting recursion's floating-point accumulation relies on.
type transRow struct {
	to    []int32
	cnt   []int32
	total int32
}

func (r *transRow) bump(lm int) {
	for i, t := range r.to {
		if int(t) == lm {
			r.cnt[i]++
			r.total++
			return
		}
	}
	r.to = append(r.to, int32(lm))
	r.cnt = append(r.cnt, 1)
	r.total++
}

// cloneRows deep-copies a node -> landmark table of transition rows. The
// copies share one arena, each row capped at its length, so a row that
// grows after the copy moves out instead of writing over its neighbour.
func cloneRows(trans [][]transRow) [][]transRow {
	n := 0
	for _, rows := range trans {
		for _, row := range rows {
			n += 2 * len(row.to)
		}
	}
	arena := make([]int32, 0, n)
	cp := make([][]transRow, len(trans))
	for i, rows := range trans {
		cprows := make([]transRow, len(rows))
		for j, row := range rows {
			k, m := len(arena), len(row.to)
			arena = append(append(arena, row.to...), row.cnt...)
			cprows[j] = transRow{to: arena[k : k+m : k+m], cnt: arena[k+m : k+2*m : k+2*m], total: row.total}
		}
		cp[i] = cprows
	}
	return cp
}

// perMaxSteps caps the depth of PER's hitting-probability recursion over
// the semi-Markov model (Section V-A.2). Score rounds a packet's step
// budget up to one of perBuckets power-of-two buckets, 1, 2, 4, 8 and 16
// steps, the last of which is perMaxSteps.
const (
	perMaxSteps = 1 << (perBuckets - 1)
	perBuckets  = 5
)

// NewPER returns a PER instance.
func NewPER() *PER { return &PER{} }

// Name implements Method.
func (m *PER) Name() string { return "PER" }

// Clone implements Method. The semi-Markov model and the per-node
// hitting-probability caches are deep-copied; the recursion scratch
// buffers start fresh (hitting re-sizes them on demand).
func (m *PER) Clone() Method {
	cp := &PER{
		trans:     cloneRows(m.trans),
		stepSum:   slices.Clone(m.stepSum),
		stepCnt:   slices.Clone(m.stepCnt),
		mean:      slices.Clone(m.mean),
		last:      slices.Clone(m.last),
		lastTime:  slices.Clone(m.lastTime),
		cacheUpTo: slices.Clone(m.cacheUpTo),
	}
	cp.cache = make([][]float64, len(m.cache))
	for i, probs := range m.cache {
		if probs != nil {
			cp.cache[i] = append([]float64(nil), probs...)
		}
	}
	return cp
}

// Init implements Method.
func (m *PER) Init(ctx *sim.Context) {
	nN := len(ctx.Nodes)
	m.trans = make([][]transRow, nN)
	for i := range m.trans {
		m.trans[i] = make([]transRow, ctx.NumLandmarks())
	}
	m.stepSum = make([]trace.Time, nN)
	m.stepCnt = make([]int, nN)
	m.mean = make([]trace.Time, nN)
	m.last = make([]int, nN)
	m.lastTime = make([]trace.Time, nN)
	m.cache = make([][]float64, nN)
	m.cacheUpTo = make([]int, nN)
	for i := range m.last {
		m.mean[i] = trace.Day
		m.last[i] = -1
	}
}

// OnVisit implements Method.
func (m *PER) OnVisit(ctx *sim.Context, n *sim.Node, lm int) {
	id := n.ID
	if prev := m.last[id]; prev >= 0 && prev != lm {
		m.trans[id][prev].bump(lm)
		m.stepSum[id] += ctx.Now() - m.lastTime[id]
		m.stepCnt[id]++
		m.mean[id] = m.stepSum[id] / trace.Time(m.stepCnt[id])
	}
	m.last[id] = lm
	m.lastTime[id] = ctx.Now()
	m.cacheUpTo[id] = 0 // moving invalidates the prediction
}

// hitting computes, for every destination, the probability that the node's
// Markov walk from its current landmark reaches it within 1<<want steps,
// and caches the vector of every bucket up to want on the way: the
// vector after k steps does not depend on how far the walk goes on. It
// runs one pass per step over the occupancy distribution and accumulates
// first-visit mass (slightly overestimating on revisits, which is
// acceptable for ranking). A walk whose mass runs out early has reached
// its final vector, so it fills every deeper bucket too. Dense scratch
// buffers keep the hot path allocation-light.
func (m *PER) hitting(ctx *sim.Context, node, want int) {
	nLm := ctx.NumLandmarks()
	if len(m.occ) != nLm {
		m.occ = make([]float64, nLm)
		m.nxt = make([]float64, nLm)
	}
	cache := m.cache[node]
	if len(cache) != perBuckets*nLm {
		cache = make([]float64, perBuckets*nLm)
		m.cache[node] = cache
	}
	occ, nxt := m.occ, m.nxt
	active := m.active[:0]
	occ[m.last[node]] = 1
	active = append(active, m.last[node])
	bk, visited := 0, cache[:nLm]
	clear(visited)
	for k := 0; k < 1<<want && len(active) > 0; k++ {
		nextActive := m.nextActive[:0]
		for _, at := range active {
			mass := occ[at]
			occ[at] = 0
			row := &m.trans[node][at]
			if row.total == 0 {
				continue
			}
			total := float64(row.total)
			for i, to := range row.to {
				if nxt[to] == 0 {
					nextActive = append(nextActive, int(to))
				}
				nxt[to] += mass * float64(row.cnt[i]) / total
			}
		}
		for _, to := range nextActive {
			// Approximate first-visit accumulation.
			visited[to] += nxt[to] * (1 - visited[to])
		}
		occ, nxt = nxt, occ
		active, nextActive = nextActive, active
		m.active, m.nextActive = active, nextActive
		if k+1 == 1<<bk && bk < want {
			// Bucket bk is complete; the walk goes on in bucket bk+1.
			bk++
			next := cache[bk*nLm : (bk+1)*nLm]
			copy(next, visited)
			visited = next
		}
	}
	upTo := want + 1
	if len(active) == 0 {
		upTo = perBuckets
	}
	for bk++; bk < upTo; bk++ {
		copy(cache[bk*nLm:(bk+1)*nLm], visited)
	}
	m.cacheUpTo[node] = upTo
	for _, at := range active {
		occ[at] = 0
	}
	m.occ, m.nxt = occ, nxt
}

// Score implements Method: the probability of visiting dst before the
// remaining-TTL deadline, with the step budget derived from the node's
// mean per-transit time (the semi-Markov sojourn model). The budget is
// rounded up to a power-of-two bucket (perBucket), so the node's
// per-bucket cache serves every packet until the node moves.
func (m *PER) Score(ctx *sim.Context, node, dst int, remaining trace.Time) float64 {
	if m.last[node] < 0 {
		return 0
	}
	bk := perBucket(remaining, m.mean[node])
	if m.cacheUpTo[node] <= bk {
		m.hitting(ctx, node, bk)
	}
	return m.cache[node][bk*ctx.NumLandmarks()+dst]
}

// perBucket returns the bucket b of a remaining-TTL budget at a mean
// step: 2^b is min(remaining/step, perMaxSteps) rounded up to a power of
// two, and a zero mean step (transits shorter than a second) grants the
// whole budget. Bucket b+1 is taken while remaining >= (2^b+1)*step, so
// no division is needed, and a negative budget stays in bucket 0.
func perBucket(remaining, step trace.Time) int {
	if step <= 0 {
		return perBuckets - 1
	}
	bk := 0
	for bk < perBuckets-1 && remaining >= trace.Time(1<<bk+1)*step {
		bk++
	}
	return bk
}
