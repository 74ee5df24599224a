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

import (
	"fmt"
	"maps"
	"slices"
)

// Markov is an order-k Markov predictor over landmark indices. The zero
// value is not usable; construct with NewMarkov. Markov is not safe for
// concurrent use.
//
// Every context that has been followed by a successor owns one row of
// transition counts. Rows are sparse: a node departs from a handful of
// contexts and each has a handful of successors (on 4× DART at most 10 rows
// per node and 9 successors per row, out of 159 landmarks), so a row is a
// short chain of (landmark, count) cells in the node's cell arena, and no
// per-node state grows with the landmark count. Each row keeps its total
// and its running (count desc, landmark asc) argmax, which is exact because
// counts only ever increase — so Predict is a lookup, never a scan.
type Markov struct {
	k int
	// last holds the last ≤ k observed landmarks, oldest first: all of the
	// history that the contexts read.
	last []int32
	// cur[j-1], for j ≤ len(last), is the row of the order-j context
	// ending at the current landmark; -1 while that context has never had
	// a successor.
	cur []int32
	// index maps a context key to its row. An order-1 context's key is
	// the landmark itself; an order-j context extends its order-(j−1)
	// suffix by one older landmark, so its key packs that suffix's row
	// with the older landmark (see key).
	index map[uint64]int32
	rows  []row
	cells []cell
}

// row is one context's transition counts: a chain of cells from head, the
// total, and the (count desc, landmark asc) argmax.
type row struct {
	tot, max uint32
	arg      int32
	head     int32 // first cell; -1 ends the chain
}

// cell counts the transitions from one context to one landmark.
type cell struct {
	lm, next int32
	n        uint32
}

// NewMarkov returns an order-k predictor. k must be >= 1.
func NewMarkov(k int) *Markov {
	if k < 1 {
		panic(fmt.Sprintf("predict: order %d < 1", k))
	}
	return &Markov{k: k, last: make([]int32, 0, k), cur: make([]int32, k)}
}

// Order returns the predictor's order k.
func (m *Markov) Order() int { return m.k }

// Clone returns an independent copy of the predictor (a pure read of the
// receiver, safe to call concurrently on a frozen predictor).
func (m *Markov) Clone() *Markov {
	return &Markov{
		k:     m.k,
		last:  append(make([]int32, 0, m.k), m.last...),
		cur:   slices.Clone(m.cur),
		index: maps.Clone(m.index),
		rows:  slices.Clone(m.rows),
		cells: slices.Clone(m.cells),
	}
}

// key is the context-table key of the context that extends the row suffix
// (-1 for the empty context) by the older landmark lm. The two ranges do
// not overlap: order-1 keys are below 2^32, longer ones at or above it.
func key(suffix, lm int32) uint64 {
	return uint64(suffix+1)<<32 | uint64(uint32(lm))
}

// Observe appends landmark lm to the history and updates every context of
// length 1..k ending just before lm. Consecutive duplicates are ignored:
// the history is a sequence of transits, so the landmark must change.
func (m *Markov) Observe(lm int) {
	l := int32(lm)
	n := len(m.last)
	if n > 0 && m.last[n-1] == l {
		return
	}
	// Count l as the successor of each context ending at the previous
	// landmark, creating the rows of contexts seen for the first time.
	suffix := int32(-1)
	for j := 1; j <= n; j++ {
		r := m.cur[j-1]
		if r < 0 {
			r = m.newRow(key(suffix, m.last[n-j]))
		}
		m.bump(r, l)
		suffix = r
	}
	if n == m.k {
		copy(m.last, m.last[1:])
		m.last[n-1] = l
	} else {
		m.last = append(m.last, l)
	}
	// Look up the contexts ending at l. A context with a row has a suffix
	// with a row (both counted the same successor), so the first miss ends
	// the search.
	for j := range m.cur {
		m.cur[j] = -1
	}
	suffix = -1
	for j := 1; j <= len(m.last); j++ {
		r, ok := m.index[key(suffix, m.last[len(m.last)-j])]
		if !ok {
			break
		}
		m.cur[j-1] = r
		suffix = r
	}
}

// Initial table sizes, from the measured traffic: on 4× DART a node
// departs from 8.2 contexts (at most 10) holding 47 cells on average.
const (
	rowsCap  = 8
	cellsCap = 32
)

// newRow adds an empty row under context key ck and returns its index.
func (m *Markov) newRow(ck uint64) int32 {
	if m.index == nil {
		m.index = make(map[uint64]int32, rowsCap)
		m.rows = make([]row, 0, rowsCap)
		m.cells = make([]cell, 0, cellsCap)
	}
	r := int32(len(m.rows))
	m.rows = append(m.rows, row{arg: -1, head: -1})
	m.index[ck] = r
	return r
}

// bump counts one transition from row r's context to landmark l.
func (m *Markov) bump(r, l int32) {
	rw := &m.rows[r]
	c := rw.head
	for c >= 0 && m.cells[c].lm != l {
		c = m.cells[c].next
	}
	if c < 0 {
		c = int32(len(m.cells))
		m.cells = append(m.cells, cell{lm: l, next: rw.head})
		rw.head = c
	}
	cl := &m.cells[c]
	cl.n++
	rw.tot++
	// Counts only increase, so the argmax can only move to this cell.
	if cl.n > rw.max || (cl.n == rw.max && l < rw.arg) {
		rw.max, rw.arg = cl.n, l
	}
}

// Predict returns the most probable next landmark and its probability: the
// argmax of the longest context (up to k) that has been followed by a
// successor, ties broken by the lower landmark index. ok is false when no
// context matches — the paper's "missed k-hop transit pattern" case.
func (m *Markov) Predict() (lm int, p float64, ok bool) {
	for j := len(m.last); j >= 1; j-- {
		if r := m.cur[j-1]; r >= 0 {
			rw := &m.rows[r]
			return int(rw.arg), float64(rw.max) / float64(rw.tot), true
		}
	}
	return -1, 0, false
}
