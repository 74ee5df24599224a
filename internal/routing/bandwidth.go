// Package routing implements the inter-landmark control plane of
// Section IV-C: transit-link bandwidth measurement with exponential
// averaging (Eq. (4)), link delay estimation, and distance-vector routing
// tables with a backup next hop (Section IV-E.3) plus the loop-detection
// helpers of Section IV-E.2.
package routing

import (
	"math"
	"slices"

	"repro/internal/trace"
)

// Infinite is the delay of an unreachable destination.
const Infinite = math.MaxFloat64

// BandwidthTable tracks, on one landmark, the bandwidth of its outgoing
// transit links: B(me→nbr) in node transits per time unit, smoothed by
// Eq. (4): B ← ρ·n_t + (1−ρ)·B. Reports arrive with a time-unit sequence
// number; stale reports (sequence not newer than the last applied one) are
// discarded, as the paper prescribes.
// Two estimates are kept per link: the authoritative reported one (from
// node-carried reports, Section IV-C.1's final mechanism) and a symmetric
// fallback derived from the reverse direction under observation O3 ("l_i
// can regard n_t(i→j) = n_t(j→i)"), used only until the first real report
// arrives. The paper introduces the symmetric estimate first and the
// report mechanism as its correction; combining them bootstraps routing on
// links whose reverse reports travel slowly.
//
// Landmark indices are small and dense, so both estimates live in flat
// per-neighbour arrays over the landmark domain.
type BandwidthTable struct {
	rho float64    // EWMA weight ρ
	rep []estimate // reported, per neighbour
	sym []estimate // symmetric fallback, per neighbour
}

// estimate is one EWMA bandwidth estimate and the unit of its last fold.
type estimate struct {
	bw  float64
	seq int
	has bool // an estimate exists; seq and bw are meaningful
}

// NewBandwidthTable returns an empty table for neighbours [0, n) with EWMA
// weight rho, which must lie in (0, 1].
func NewBandwidthTable(rho float64, n int) *BandwidthTable {
	return &BandwidthTable{rho: rho, rep: make([]estimate, n), sym: make([]estimate, n)}
}

// Apply folds a reported transit count for link me→nbr during time unit
// unitSeq into the authoritative estimate. It reports whether the report
// was fresh.
func (t *BandwidthTable) Apply(nbr int, count float64, unitSeq int) bool {
	return t.rep[nbr].fold(t.rho, count, unitSeq)
}

// ApplySymmetric folds the locally observed reverse-direction count in as
// the O3 fallback estimate.
func (t *BandwidthTable) ApplySymmetric(nbr int, count float64, unitSeq int) bool {
	return t.sym[nbr].fold(t.rho, count, unitSeq)
}

// fold applies Eq. (4) for a count of unit unitSeq; the first count is
// taken as is, a count not newer than the last is dropped.
func (e *estimate) fold(rho, count float64, unitSeq int) bool {
	switch {
	case !e.has:
		e.bw, e.has = count, true
	case unitSeq <= e.seq:
		return false
	default:
		e.bw = rho*count + (1-rho)*e.bw
	}
	e.seq = unitSeq
	return true
}

// Clone returns an independent copy of the table (a pure read of the
// receiver, safe to call concurrently on a frozen table).
func (t *BandwidthTable) Clone() *BandwidthTable {
	return &BandwidthTable{rho: t.rho, rep: slices.Clone(t.rep), sym: slices.Clone(t.sym)}
}

// Bandwidth returns the current estimate for link me→nbr: the reported
// value when one exists, the symmetric fallback otherwise (0 when neither
// is known).
func (t *BandwidthTable) Bandwidth(nbr int) float64 {
	if t.rep[nbr].has {
		return t.rep[nbr].bw
	}
	return t.sym[nbr].bw
}

// Reported returns whether a real report has ever been applied for nbr.
func (t *BandwidthTable) Reported(nbr int) bool { return t.rep[nbr].has }

// Neighbors returns the neighbours with positive bandwidth, sorted.
func (t *BandwidthTable) Neighbors() []int {
	out := make([]int, 0, len(t.rep))
	for n := range t.rep {
		if t.Bandwidth(n) > 0 {
			out = append(out, n)
		}
	}
	return out
}

// LinkDelay converts a bandwidth into the expected delay (seconds) of
// pushing one packet across the link: the mean wait for the next carrier,
// unit/B. Zero bandwidth yields Infinite.
func LinkDelay(bandwidth float64, unit trace.Time) float64 {
	if bandwidth <= 0 {
		return Infinite
	}
	return float64(unit) / bandwidth
}

// ArrivalCounter counts, on one landmark, node arrivals per previous
// landmark within the current time unit. Rolling the counter at a unit
// boundary yields the n_t(from→me) reports that travel back to each
// neighbouring landmark inside departing nodes (Section IV-C.1).
type ArrivalCounter struct {
	cnt   []int32 // arrivals this unit, per previous landmark
	known []bool  // Roll scratch: marks knownNeighbors during the sweep
	// rep is the reusable report buffer handed out by Roll.
	rep []BandwidthReport
}

// NewArrivalCounter returns an empty counter for previous landmarks
// [0, n).
func NewArrivalCounter(n int) *ArrivalCounter {
	return &ArrivalCounter{cnt: make([]int32, n), known: make([]bool, n)}
}

// Record notes one node arrival whose previous landmark was from.
// Negative from (no previous landmark) is ignored.
func (c *ArrivalCounter) Record(from int) {
	if from >= 0 {
		c.cnt[from]++
	}
}

// Clone returns an independent copy of the counter (a pure read of the
// receiver; the clone gets a fresh report scratch buffer).
func (c *ArrivalCounter) Clone() *ArrivalCounter {
	return &ArrivalCounter{cnt: slices.Clone(c.cnt), known: make([]bool, len(c.known))}
}

// BandwidthReport carries a measured transit count for link From→To during
// time unit Seq; it is applied at landmark From.
type BandwidthReport struct {
	From, To int
	Count    int
	Seq      int
}

// Roll returns the reports for the completed time unit, in ascending From
// order, and resets the counter. me is the landmark owning the counter;
// seq the completed unit. Neighbours with zero arrivals this unit still
// get a report so their bandwidth estimate decays (otherwise a dead link
// would keep its old bandwidth forever). The returned slice is reused by
// the next Roll — callers must consume or copy it before then.
func (c *ArrivalCounter) Roll(me, seq int, knownNeighbors []int) []BandwidthReport {
	out := c.rep[:0]
	for _, from := range knownNeighbors {
		c.known[from] = true
	}
	for from, n := range c.cnt {
		if n > 0 || c.known[from] {
			out = append(out, BandwidthReport{From: from, To: me, Count: int(n), Seq: seq})
			c.cnt[from] = 0
		}
		c.known[from] = false
	}
	c.rep = out
	return out
}
