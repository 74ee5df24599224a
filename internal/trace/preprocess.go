package trace

import (
	"sort"

	"repro/internal/geo"
)

// PreprocessOptions mirror the trace cleaning the paper applies to DART and
// DNET (Section III-B.1): merge neighbouring records of the same node and
// landmark, remove short connections, remove nodes with few records, and map
// landmarks within a given distance onto one landmark.
type PreprocessOptions struct {
	// MergeGap merges two consecutive visits of a node to the same
	// landmark when the gap between them is at most MergeGap. Zero merges
	// only touching/overlapping records. Negative disables merging.
	MergeGap Time
	// MinVisit drops visits shorter than MinVisit (DART uses 200 s).
	MinVisit Time
	// MinRecords drops nodes with fewer remaining visits (DART uses 500).
	MinRecords int
	// MergeDistance maps landmarks within this distance (meters) onto a
	// single landmark (DNET uses 1.5 km). Requires Positions; ignored
	// otherwise or when <= 0.
	MergeDistance float64
	// MinLandmarkVisits drops landmarks visited fewer times (DNET removes
	// APs appearing < 50 times). Zero keeps all.
	MinLandmarkVisits int
}

// Preprocess applies the paper's cleaning pipeline and returns a new trace
// with nodes and landmarks re-indexed densely. The input is not modified.
func Preprocess(tr *Trace, opt PreprocessOptions) *Trace {
	out := tr.Clone()
	out.SortVisits()
	if opt.MergeDistance > 0 && len(out.Positions) == out.NumLandmarks {
		mergeLandmarksByDistance(out, opt.MergeDistance)
	}
	if opt.MergeGap >= 0 {
		mergeNeighbouring(out, opt.MergeGap)
	}
	if opt.MinVisit > 0 {
		kept := out.Visits[:0]
		for _, v := range out.Visits {
			if v.Duration() >= opt.MinVisit {
				kept = append(kept, v)
			}
		}
		out.Visits = kept
		// Removal may expose new adjacent same-landmark pairs.
		if opt.MergeGap >= 0 {
			mergeNeighbouring(out, opt.MergeGap)
		}
	}
	if opt.MinLandmarkVisits > 0 {
		counts := make([]int, out.NumLandmarks)
		for _, v := range out.Visits {
			counts[v.Landmark]++
		}
		kept := out.Visits[:0]
		for _, v := range out.Visits {
			if counts[v.Landmark] >= opt.MinLandmarkVisits {
				kept = append(kept, v)
			}
		}
		out.Visits = kept
		if opt.MergeGap >= 0 {
			mergeNeighbouring(out, opt.MergeGap)
		}
	}
	if opt.MinRecords > 0 {
		counts := make([]int, out.NumNodes)
		for _, v := range out.Visits {
			counts[v.Node]++
		}
		kept := out.Visits[:0]
		for _, v := range out.Visits {
			if counts[v.Node] >= opt.MinRecords {
				kept = append(kept, v)
			}
		}
		out.Visits = kept
	}
	reindex(out)
	out.SortVisits()
	return out
}

// mergeNeighbouring merges consecutive same-node same-landmark visits whose
// gap is at most gap, in place.
func mergeNeighbouring(tr *Trace, gap Time) {
	byNode := tr.VisitsByNode()
	merged := tr.Visits[:0]
	for _, vs := range byNode {
		i := 0
		for i < len(vs) {
			cur := vs[i]
			j := i + 1
			for j < len(vs) && vs[j].Landmark == cur.Landmark && vs[j].Start-cur.End <= gap {
				if vs[j].End > cur.End {
					cur.End = vs[j].End
				}
				j++
			}
			merged = append(merged, cur)
			i = j
		}
	}
	tr.Visits = merged
	tr.SortVisits()
}

// mergeLandmarksByDistance greedily clusters landmarks whose positions are
// within dist of an existing cluster representative, in index order, and
// rewrites every visit to the representative. The representative's position
// is kept (the paper maps nearby APs to one landmark without recentering).
func mergeLandmarksByDistance(tr *Trace, dist float64) {
	rep := make([]int, tr.NumLandmarks)
	for i := range rep {
		rep[i] = -1
	}
	var reps []int
	for i := 0; i < tr.NumLandmarks; i++ {
		assigned := false
		for _, r := range reps {
			if geo.Dist(tr.Positions[i], tr.Positions[r]) <= dist {
				rep[i] = r
				assigned = true
				break
			}
		}
		if !assigned {
			rep[i] = i
			reps = append(reps, i)
		}
	}
	for i := range tr.Visits {
		tr.Visits[i].Landmark = rep[tr.Visits[i].Landmark]
	}
}

// reindex renumbers nodes and landmarks densely in increasing old-index
// order and updates NumNodes/NumLandmarks/Positions accordingly.
func reindex(tr *Trace) {
	nodeSet := map[int]bool{}
	lmSet := map[int]bool{}
	for _, v := range tr.Visits {
		nodeSet[v.Node] = true
		lmSet[v.Landmark] = true
	}
	nodes := sortedKeys(nodeSet)
	lms := sortedKeys(lmSet)
	nodeMap := make(map[int]int, len(nodes))
	for i, n := range nodes {
		nodeMap[n] = i
	}
	lmMap := make(map[int]int, len(lms))
	for i, l := range lms {
		lmMap[l] = i
	}
	for i := range tr.Visits {
		tr.Visits[i].Node = nodeMap[tr.Visits[i].Node]
		tr.Visits[i].Landmark = lmMap[tr.Visits[i].Landmark]
	}
	if len(tr.Positions) > 0 {
		pos := make([]geo.Point, len(lms))
		for i, l := range lms {
			pos[i] = tr.Positions[l]
		}
		tr.Positions = pos
	}
	tr.NumNodes = len(nodes)
	tr.NumLandmarks = len(lms)
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
