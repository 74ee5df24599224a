// Package landmark implements landmark selection and subarea division
// (Section IV-A): popular places become candidate landmarks, candidates
// closer than a separation distance D are pruned keeping the more popular
// one, and the plane is divided into one subarea per landmark by
// nearest-landmark assignment (the paper's even-split / no-overlap rules).
package landmark

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Selection is the result of landmark selection over a set of places.
type Selection struct {
	// Chosen lists the selected place indices in decreasing popularity.
	Chosen []int
	// Dropped maps each pruned place to the chosen landmark that absorbed
	// it (the nearer, more popular candidate).
	Dropped map[int]int
}

// Select picks landmarks from places. visits[i] is the visit count of
// place i; pos[i] its position. The top maxCandidates most-visited places
// become candidates (maxCandidates <= 0 keeps all), then any candidate
// within minSep meters of a more popular chosen landmark is pruned, so
// every pair of chosen landmarks is more than minSep apart.
func Select(visits []int, pos []geo.Point, maxCandidates int, minSep float64) Selection {
	idx := make([]int, len(visits))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if visits[idx[a]] != visits[idx[b]] {
			return visits[idx[a]] > visits[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if maxCandidates > 0 && maxCandidates < len(idx) {
		idx = idx[:maxCandidates]
	}
	sel := Selection{Dropped: map[int]int{}}
	for _, cand := range idx {
		absorbed := -1
		for _, ch := range sel.Chosen {
			if geo.Dist(pos[cand], pos[ch]) < minSep {
				absorbed = ch
				break
			}
		}
		if absorbed >= 0 {
			sel.Dropped[cand] = absorbed
		} else {
			sel.Chosen = append(sel.Chosen, cand)
		}
	}
	return sel
}

// SelectFromTrace runs Select using the trace's per-landmark visit counts
// and positions, and returns both the selection and a remapped trace whose
// landmarks are exactly the chosen ones: visits to pruned places are
// re-attributed to the absorbing landmark, and visits to places that are
// neither chosen nor absorbed are dropped (they are unpopular places the
// administrator would not instrument).
func SelectFromTrace(tr *trace.Trace, maxCandidates int, minSep float64) (Selection, *trace.Trace) {
	counts := make([]int, tr.NumLandmarks)
	for _, v := range tr.Visits {
		counts[v.Landmark]++
	}
	sel := Select(counts, tr.Positions, maxCandidates, minSep)
	newIdx := make(map[int]int, len(sel.Chosen))
	for i, ch := range sel.Chosen {
		newIdx[ch] = i
	}
	out := &trace.Trace{
		Name:         tr.Name,
		NumNodes:     tr.NumNodes,
		NumLandmarks: len(sel.Chosen),
	}
	for _, ch := range sel.Chosen {
		out.Positions = append(out.Positions, tr.Positions[ch])
	}
	for _, v := range tr.Visits {
		lm := v.Landmark
		if abs, ok := sel.Dropped[lm]; ok {
			lm = abs
		}
		ni, ok := newIdx[lm]
		if !ok {
			continue
		}
		v.Landmark = ni
		out.Visits = append(out.Visits, v)
	}
	out.SortVisits()
	return sel, out
}
