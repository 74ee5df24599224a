package landmark

import (
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/trace"
)

func TestSelectMinSeparation(t *testing.T) {
	// Places 0 and 1 are 50 m apart; 0 is more popular and must absorb 1.
	visits := []int{100, 80, 60}
	pos := []geo.Point{{X: 0}, {X: 50}, {X: 1000}}
	sel := Select(visits, pos, 0, 200)
	if !reflect.DeepEqual(sel.Chosen, []int{0, 2}) {
		t.Errorf("chosen = %v, want [0 2]", sel.Chosen)
	}
	if sel.Dropped[1] != 0 {
		t.Errorf("dropped = %v, want 1->0", sel.Dropped)
	}
}

func TestSelectMaxCandidates(t *testing.T) {
	visits := []int{5, 50, 10, 40}
	pos := []geo.Point{{X: 0}, {X: 1000}, {X: 2000}, {X: 3000}}
	sel := Select(visits, pos, 2, 10)
	if !reflect.DeepEqual(sel.Chosen, []int{1, 3}) {
		t.Errorf("chosen = %v, want the two most visited", sel.Chosen)
	}
}

func TestSelectFromTraceRemaps(t *testing.T) {
	// Landmarks: 0 popular, 1 nearby (absorbed into 0), 2 far and rarely
	// visited (outside the candidate list: dropped entirely).
	tr := &trace.Trace{
		Name: "T", NumNodes: 1, NumLandmarks: 3,
		Positions: []geo.Point{{X: 0}, {X: 50}, {X: 5000}},
		Visits: []trace.Visit{
			{Node: 0, Landmark: 0, Start: 0, End: 10},
			{Node: 0, Landmark: 1, Start: 20, End: 30},
			{Node: 0, Landmark: 0, Start: 40, End: 50},
			{Node: 0, Landmark: 2, Start: 60, End: 70},
		},
	}
	tr.SortVisits()
	// Two candidates: landmark 0 (2 visits) and landmark 1 (1 visit, ties
	// with 2 broken by index). Landmark 1 sits within the separation
	// distance of 0 and is absorbed; landmark 2 never makes the candidate
	// list, so its visits are dropped.
	sel, out := SelectFromTrace(tr, 2, 200)
	if len(sel.Chosen) != 1 || sel.Chosen[0] != 0 {
		t.Fatalf("chosen = %v", sel.Chosen)
	}
	if out.NumLandmarks != 1 {
		t.Fatalf("NumLandmarks = %d", out.NumLandmarks)
	}
	// Visit to absorbed landmark 1 re-attributed to 0; visit to dropped
	// landmark 2 removed.
	if len(out.Visits) != 3 {
		t.Errorf("visits = %+v", out.Visits)
	}
	for _, v := range out.Visits {
		if v.Landmark != 0 {
			t.Errorf("visit to unexpected landmark: %+v", v)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}
