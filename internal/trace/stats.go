package trace

import (
	"sort"

	"repro/internal/geo"
)

// Statistics in this file back the paper's trace analysis: the landmark
// visiting distribution (Fig. 2, observation O1), the transit-link bandwidth
// distribution (Fig. 3, O2/O3) and bandwidth over time (Fig. 4, O4).

// VisitCounts returns counts[l][n] = number of visits of node n to
// landmark l.
func VisitCounts(tr *Trace) [][]int {
	counts := make([][]int, tr.NumLandmarks)
	for i := range counts {
		counts[i] = make([]int, tr.NumNodes)
	}
	for _, v := range tr.Visits {
		counts[v.Landmark][v.Node]++
	}
	return counts
}

// TopLandmarks returns the indices of the k most-visited landmarks in
// decreasing order of total visits (ties by lower index).
func TopLandmarks(tr *Trace, k int) []int {
	totals := make([]int, tr.NumLandmarks)
	for _, v := range tr.Visits {
		totals[v.Landmark]++
	}
	idx := make([]int, tr.NumLandmarks)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		if totals[idx[i]] != totals[idx[j]] {
			return totals[idx[i]] > totals[idx[j]]
		}
		return idx[i] < idx[j]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// VisitingDistribution reproduces one curve of Fig. 2: the per-node visit
// counts of landmark lm, sorted in decreasing order. Observation O1 holds
// when only a small prefix of the result is large.
func VisitingDistribution(tr *Trace, lm int) []int {
	counts := VisitCounts(tr)[lm]
	out := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Link identifies a directed transit link between two landmarks.
type Link struct {
	From, To int
}

// Reverse returns the matching transit link in the opposite direction.
func (l Link) Reverse() Link { return Link{From: l.To, To: l.From} }

// TransitCounts returns the total number of transits observed on each
// directed link.
func TransitCounts(tr *Trace) map[Link]int {
	out := map[Link]int{}
	for _, t := range tr.Transits() {
		out[Link{From: t.From, To: t.To}]++
	}
	return out
}

// LinkBandwidth is the average number of transits per time unit on a link,
// the paper's definition of transit-link bandwidth (Section III-A.1).
type LinkBandwidth struct {
	Link      Link
	Bandwidth float64
}

// Bandwidths computes the average bandwidth of every link with at least one
// transit, given the measurement time unit. Results are sorted in
// decreasing bandwidth (Fig. 3's x-axis order), ties broken by link indices.
func Bandwidths(tr *Trace, unit Time) []LinkBandwidth {
	if unit <= 0 {
		unit = Day
	}
	units := float64(tr.Duration()) / float64(unit)
	if units <= 0 {
		units = 1
	}
	counts := TransitCounts(tr)
	out := make([]LinkBandwidth, 0, len(counts))
	for l, c := range counts {
		out = append(out, LinkBandwidth{Link: l, Bandwidth: float64(c) / units})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bandwidth != out[j].Bandwidth {
			return out[i].Bandwidth > out[j].Bandwidth
		}
		if out[i].Link.From != out[j].Link.From {
			return out[i].Link.From < out[j].Link.From
		}
		return out[i].Link.To < out[j].Link.To
	})
	return out
}

// MatchingSymmetry quantifies observation O3: for each pair of matching
// transit links (both directions present), it returns the ratio of the
// smaller to the larger bandwidth. Values near 1 mean symmetric links.
func MatchingSymmetry(tr *Trace, unit Time) []float64 {
	bws := Bandwidths(tr, unit)
	m := make(map[Link]float64, len(bws))
	for _, b := range bws {
		m[b.Link] = b.Bandwidth
	}
	var out []float64
	for l, b := range m {
		if l.From >= l.To {
			continue
		}
		r, ok := m[l.Reverse()]
		if !ok {
			continue
		}
		lo, hi := b, r
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > 0 {
			out = append(out, lo/hi)
		}
	}
	sort.Float64s(out)
	return out
}

// BandwidthSeries returns, for the given link, the number of transits in
// each consecutive time unit across the trace — one curve of Fig. 4.
func BandwidthSeries(tr *Trace, link Link, unit Time) []float64 {
	if unit <= 0 {
		unit = Day
	}
	start, end := tr.Span()
	n := int((end-start)/unit) + 1
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for _, t := range tr.Transits() {
		if t.From != link.From || t.To != link.To {
			continue
		}
		i := int((t.Arrive - start) / unit)
		if i >= 0 && i < n {
			out[i]++
		}
	}
	return out
}

// Slice returns the sub-trace containing only visits that start within
// [from, to). Visit intervals are not clipped; nodes and landmarks keep
// their indices so slices remain comparable with the full trace.
func Slice(tr *Trace, from, to Time) *Trace {
	out := &Trace{
		Name:         tr.Name,
		NumNodes:     tr.NumNodes,
		NumLandmarks: tr.NumLandmarks,
		Positions:    append([]geo.Point(nil), tr.Positions...),
	}
	for _, v := range tr.Visits {
		if v.Start >= from && v.Start < to {
			out.Visits = append(out.Visits, v)
		}
	}
	return out
}
