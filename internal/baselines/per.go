package baselines

import (
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
		stepSum:   append([]trace.Time(nil), m.stepSum...),
		stepCnt:   append([]int(nil), m.stepCnt...),
		last:      append([]int(nil), m.last...),
		lastTime:  append([]trace.Time(nil), m.lastTime...),
		cacheUpTo: append([]int(nil), m.cacheUpTo...),
	}
	cp.trans = make([][]transRow, len(m.trans))
	for i, rows := range m.trans {
		cprows := make([]transRow, len(rows))
		for j, row := range rows {
			cprows[j] = transRow{
				to:    append([]int32(nil), row.to...),
				cnt:   append([]int32(nil), row.cnt...),
				total: row.total,
			}
		}
		cp.trans[i] = cprows
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
	m.last = make([]int, nN)
	m.lastTime = make([]trace.Time, nN)
	m.cache = make([][]float64, nN)
	m.cacheUpTo = make([]int, nN)
	for i := range m.last {
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
	}
	m.last[id] = lm
	m.lastTime[id] = ctx.Now()
	m.cacheUpTo[id] = 0 // moving invalidates the prediction
}

// meanStep returns the node's mean per-transit time.
func (m *PER) meanStep(node int) trace.Time {
	if m.stepCnt[node] == 0 {
		return trace.Day
	}
	return m.stepSum[node] / trace.Time(m.stepCnt[node])
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
// mean per-transit time (the semi-Markov sojourn model); a zero mean
// (transits shorter than a second) grants the whole budget. The budget is
// rounded up to a power-of-two bucket and clamped to 1..perMaxSteps, so
// the node's per-bucket cache serves every packet until the node moves.
func (m *PER) Score(ctx *sim.Context, node, dst int, remaining trace.Time) float64 {
	if m.last[node] < 0 {
		return 0
	}
	steps := perMaxSteps
	if step := m.meanStep(node); step > 0 {
		steps = min(int(remaining/step), perMaxSteps)
	}
	bk := 0
	for 1<<bk < steps {
		bk++
	}
	if m.cacheUpTo[node] <= bk {
		m.hitting(ctx, node, bk)
	}
	return m.cache[node][bk*ctx.NumLandmarks()+dst]
}
