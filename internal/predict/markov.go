// Package predict implements the order-k Markov next-landmark predictor of
// Section IV-B together with the per-node prediction-accuracy tracking used
// to refine carrier selection (Section IV-D.4).
//
// A node's history is its ordered sequence of visited landmarks. The
// order-k predictor estimates, from the last k landmarks (the context), the
// probability of each possible next landmark as the fraction of times that
// next landmark followed the same context in the history, exactly as in the
// paper's Eqs. (1)–(3).
package predict

import "fmt"

// Markov is an order-k Markov predictor over landmark indices. The zero
// value is not usable; construct with NewMarkov. Markov is not safe for
// concurrent use.
type Markov struct {
	k       int
	history []int
	// counts[ctx][next] = occurrences of context ctx followed by next.
	counts map[string]map[int]int
	// ctxTotal[ctx] = total occurrences of context ctx with a successor.
	ctxTotal map[string]int
	// Dense order-1 fast path, enabled by SetDomain when k == 1: the
	// context is just the previous landmark, so rows[prev][next] holds the
	// transition counts and tot[prev] the row totals — no context keys, no
	// map traffic on the per-contact hot path. Rows allocate lazily; a
	// node only pays for landmarks it has actually departed from.
	//
	// In dense mode the history is not materialised: only the current
	// landmark and the observation count are kept (the order-1 context is
	// the current landmark alone), and Predict is O(1) — each row's meta
	// tracks its (count desc, landmark asc) argmax incrementally, which
	// is exact because counts only ever increase.
	n    int
	rows [][]uint32
	meta []rowMeta // per row: total and (count desc, landmark asc) argmax
	cur  int       // current landmark (dense mode); -1 before first Observe
	hlen int       // observations recorded (dense mode)
	// dist memoizes Distribution between Observes: carrier selection
	// queries the same distribution once per present node per forwarding
	// pass, while the history only changes on arrival.
	dist      []Prediction
	distValid bool
}

// rowMeta is one dense row's derived state, packed so an Observe touches a
// single cache line: the row total and the running (count desc, landmark
// asc) argmax.
type rowMeta struct {
	tot int64  // total transitions out of this row
	max uint32 // the maximum count in the row
	arg int32  // landmark holding max; -1 while the row is empty
}

// NewMarkov returns an order-k predictor. k must be >= 1.
func NewMarkov(k int) *Markov {
	if k < 1 {
		panic(fmt.Sprintf("predict: order %d < 1", k))
	}
	return &Markov{
		k:        k,
		counts:   map[string]map[int]int{},
		ctxTotal: map[string]int{},
	}
}

// Order returns the predictor's order k.
func (m *Markov) Order() int { return m.k }

// SetDomain declares the landmark index domain [0, n). For an order-1
// predictor this enables the dense transition-count fast path; it must be
// called before the first Observe and is a no-op otherwise. Predictions
// are bit-identical to the generic path: the per-context candidate sets
// and probabilities are the same, and the (probability, landmark) order is
// strict, so the realised distribution cannot differ.
func (m *Markov) SetDomain(n int) {
	if n <= 0 || m.k != 1 || len(m.history) > 0 || m.rows != nil {
		return
	}
	m.n = n
	m.rows = make([][]uint32, n)
	m.meta = make([]rowMeta, n)
	for i := range m.meta {
		m.meta[i].arg = -1
	}
	m.cur = -1
}

// Clone returns an independent copy of the predictor (a pure read of the
// receiver, safe to call concurrently on a frozen predictor). The memoized
// distribution is copied rather than invalidated so a clone's query
// sequence matches the original's exactly.
func (m *Markov) Clone() *Markov {
	cp := &Markov{
		k:         m.k,
		history:   append([]int(nil), m.history...),
		counts:    make(map[string]map[int]int, len(m.counts)),
		ctxTotal:  make(map[string]int, len(m.ctxTotal)),
		distValid: m.distValid,
	}
	for key, nm := range m.counts {
		inner := make(map[int]int, len(nm))
		for lm, c := range nm {
			inner[lm] = c
		}
		cp.counts[key] = inner
	}
	for key, t := range m.ctxTotal {
		cp.ctxTotal[key] = t
	}
	if m.rows != nil {
		cp.n = m.n
		cp.rows = make([][]uint32, len(m.rows))
		for i, row := range m.rows {
			if row != nil {
				cp.rows[i] = append([]uint32(nil), row...)
			}
		}
		cp.meta = append([]rowMeta(nil), m.meta...)
		cp.cur = m.cur
		cp.hlen = m.hlen
	}
	if len(m.dist) > 0 {
		cp.dist = append([]Prediction(nil), m.dist...)
	}
	return cp
}

// HistoryLen returns the number of landmarks observed so far.
func (m *Markov) HistoryLen() int {
	if m.rows != nil {
		return m.hlen
	}
	return len(m.history)
}

// Current returns the most recently observed landmark, or -1 when the
// history is empty.
func (m *Markov) Current() int {
	if m.rows != nil {
		return m.cur
	}
	if len(m.history) == 0 {
		return -1
	}
	return m.history[len(m.history)-1]
}

func ctxKey(ctx []int) string {
	b := make([]byte, 0, len(ctx)*3)
	for _, v := range ctx {
		b = appendVarint(b, v)
	}
	return string(b)
}

func appendVarint(b []byte, v int) []byte {
	u := uint(v)
	for u >= 0x80 {
		b = append(b, byte(u)|0x80)
		u >>= 7
	}
	return append(b, byte(u))
}

// Observe appends landmark lm to the history and updates every context of
// length 1..k ending just before lm. Consecutive duplicates are ignored:
// the history is a sequence of transits, so the landmark must change.
func (m *Markov) Observe(lm int) {
	if m.rows != nil {
		// Dense mode keeps no history slice: the order-1 context is the
		// current landmark, so only cur and the transition counts matter.
		prev := m.cur
		if prev == lm {
			return
		}
		if prev >= 0 {
			row := m.rows[prev]
			if row == nil {
				row = make([]uint32, m.n)
				m.rows[prev] = row
			}
			row[lm]++
			mt := &m.meta[prev]
			mt.tot++
			// Counts only increase, so the (count desc, landmark asc)
			// argmax can only move to the incremented cell.
			if c := row[lm]; c > mt.max || (c == mt.max && int32(lm) < mt.arg) {
				mt.max = c
				mt.arg = int32(lm)
			}
		}
		m.cur = lm
		m.hlen++
		m.distValid = false
		return
	}
	n := len(m.history)
	if n > 0 && m.history[n-1] == lm {
		return
	}
	for j := 1; j <= m.k && j <= n; j++ {
		key := ctxKey(m.history[n-j:])
		nm := m.counts[key]
		if nm == nil {
			nm = map[int]int{}
			m.counts[key] = nm
		}
		nm[lm]++
		m.ctxTotal[key]++
	}
	m.history = append(m.history, lm)
	m.distValid = false
}

// Prediction is one candidate next landmark with its probability.
type Prediction struct {
	Landmark    int
	Probability float64
}

// Distribution returns the probability of each candidate next landmark
// given the current context, in decreasing probability (ties by lower
// landmark index). It backs off to shorter contexts when the full k-length
// context was never seen, and returns nil when no context matches — the
// paper's "missed k-hop transit pattern" case.
//
// The result is memoized until the next Observe and shared between calls:
// callers must treat it as read-only and must not retain it across
// Observe.
func (m *Markov) Distribution() []Prediction {
	if m.distValid {
		return m.dist
	}
	m.dist = m.computeDistribution(m.dist[:0])
	m.distValid = true
	return m.dist
}

func (m *Markov) computeDistribution(out []Prediction) []Prediction {
	if m.rows != nil {
		if m.cur < 0 {
			return nil
		}
		total := m.meta[m.cur].tot
		if total == 0 {
			return nil
		}
		for lm, c := range m.rows[m.cur] {
			if c > 0 {
				out = append(out, Prediction{Landmark: lm, Probability: float64(c) / float64(total)})
			}
		}
		sortPredictions(out)
		return out
	}
	n := len(m.history)
	if n == 0 {
		return nil
	}
	for j := min(m.k, n); j >= 1; j-- {
		key := ctxKey(m.history[n-j:])
		total := m.ctxTotal[key]
		if total == 0 {
			continue
		}
		for lm, c := range m.counts[key] {
			out = append(out, Prediction{Landmark: lm, Probability: float64(c) / float64(total)})
		}
		sortPredictions(out)
		return out
	}
	return nil
}

// sortPredictions orders by probability descending, landmark ascending —
// a strict total order (landmarks are unique), so any sort realises the
// same sequence. Insertion sort: candidate sets are small (the distinct
// successors of one context) and this avoids sort.Slice's reflection
// overhead on the hot path.
func sortPredictions(out []Prediction) {
	for i := 1; i < len(out); i++ {
		p := out[i]
		j := i - 1
		for j >= 0 && (out[j].Probability < p.Probability ||
			(out[j].Probability == p.Probability && out[j].Landmark > p.Landmark)) {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = p
	}
}

// Predict returns the most probable next landmark and its probability.
// ok is false when the predictor has no matching context.
func (m *Markov) Predict() (lm int, p float64, ok bool) {
	if m.rows != nil {
		// O(1): the per-row argmax is maintained on Observe with the same
		// (count desc, landmark asc) order Distribution sorts by, and the
		// probability is the identical float division the distribution
		// head would carry — no scan, no sort.
		if m.cur < 0 {
			return -1, 0, false
		}
		mt := m.meta[m.cur]
		if mt.tot == 0 {
			return -1, 0, false
		}
		return int(mt.arg), float64(mt.max) / float64(mt.tot), true
	}
	dist := m.Distribution()
	if len(dist) == 0 {
		return -1, 0, false
	}
	return dist[0].Landmark, dist[0].Probability, true
}

// ProbabilityOf returns the predicted probability that the next landmark is
// lm, using the same backed-off context as Distribution.
func (m *Markov) ProbabilityOf(lm int) float64 {
	for _, p := range m.Distribution() {
		if p.Landmark == lm {
			return p.Probability
		}
	}
	return 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
