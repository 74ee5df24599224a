package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geo"
)

func mkTrace(visits ...Visit) *Trace {
	nodes, lms := 0, 0
	for _, v := range visits {
		if v.Node >= nodes {
			nodes = v.Node + 1
		}
		if v.Landmark >= lms {
			lms = v.Landmark + 1
		}
	}
	tr := &Trace{Name: "T", NumNodes: nodes, NumLandmarks: lms, Visits: visits}
	tr.SortVisits()
	return tr
}

func TestValidateOK(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 10},
		Visit{Node: 0, Landmark: 1, Start: 20, End: 30},
		Visit{Node: 1, Landmark: 1, Start: 5, End: 15},
	)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := map[string]*Trace{
		"node out of range": {
			NumNodes: 1, NumLandmarks: 1,
			Visits: []Visit{{Node: 1, Landmark: 0, Start: 0, End: 1}},
		},
		"landmark out of range": {
			NumNodes: 1, NumLandmarks: 1,
			Visits: []Visit{{Node: 0, Landmark: 2, Start: 0, End: 1}},
		},
		"end before start": {
			NumNodes: 1, NumLandmarks: 1,
			Visits: []Visit{{Node: 0, Landmark: 0, Start: 5, End: 1}},
		},
		"unsorted": {
			NumNodes: 1, NumLandmarks: 2,
			Visits: []Visit{
				{Node: 0, Landmark: 0, Start: 10, End: 11},
				{Node: 0, Landmark: 1, Start: 0, End: 1},
			},
		},
		"overlapping visits": {
			NumNodes: 1, NumLandmarks: 2,
			Visits: []Visit{
				{Node: 0, Landmark: 0, Start: 0, End: 10},
				{Node: 0, Landmark: 1, Start: 5, End: 15},
			},
		},
		"positions mismatch": {
			NumNodes: 1, NumLandmarks: 2,
			Visits:    []Visit{{Node: 0, Landmark: 0, Start: 0, End: 1}},
			Positions: []geo.Point{{X: 1}},
		},
	}
	for name, tr := range cases {
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", name)
		}
	}
}

func TestTransits(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 10},
		Visit{Node: 0, Landmark: 1, Start: 20, End: 30},
		Visit{Node: 0, Landmark: 1, Start: 40, End: 50}, // same landmark: no transit
		Visit{Node: 0, Landmark: 2, Start: 60, End: 70},
		Visit{Node: 1, Landmark: 2, Start: 0, End: 5},
		Visit{Node: 1, Landmark: 0, Start: 8, End: 12},
	)
	ts := tr.Transits()
	want := []Transit{
		{Node: 1, From: 2, To: 0, Depart: 5, Arrive: 8},
		{Node: 0, From: 0, To: 1, Depart: 10, Arrive: 20},
		{Node: 0, From: 1, To: 2, Depart: 50, Arrive: 60},
	}
	if !reflect.DeepEqual(ts, want) {
		t.Errorf("Transits = %+v, want %+v", ts, want)
	}
}

func TestLandmarkSequences(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 1},
		Visit{Node: 0, Landmark: 0, Start: 2, End: 3},
		Visit{Node: 0, Landmark: 1, Start: 4, End: 5},
		Visit{Node: 0, Landmark: 0, Start: 6, End: 7},
	)
	seqs := tr.LandmarkSequences()
	if !reflect.DeepEqual(seqs[0], []int{0, 1, 0}) {
		t.Errorf("sequence = %v, want [0 1 0]", seqs[0])
	}
}

func TestSummarize(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 10},
		Visit{Node: 0, Landmark: 1, Start: 20, End: 30},
	)
	c := tr.Summarize()
	if c.NumVisits != 2 || c.NumTransits != 1 || c.Duration != 30 {
		t.Errorf("Summarize = %+v", c)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 10},
		Visit{Node: 1, Landmark: 2, Start: 5, End: 25},
	)
	tr.Positions = []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

// Property: write/read round-trips arbitrary valid traces.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nN, nL := 1+r.Intn(5), 1+r.Intn(5)
		tr := &Trace{Name: "RT", NumNodes: nN, NumLandmarks: nL}
		for n := 0; n < nN; n++ {
			t := Time(0)
			for i := 0; i < r.Intn(10); i++ {
				d := Time(1 + r.Intn(100))
				tr.Visits = append(tr.Visits, Visit{
					Node: n, Landmark: r.Intn(nL), Start: t, End: t + d,
				})
				t += d + Time(1+r.Intn(50))
			}
		}
		tr.SortVisits()
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSlice(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 10},
		Visit{Node: 0, Landmark: 1, Start: 20, End: 30},
		Visit{Node: 0, Landmark: 0, Start: 40, End: 50},
	)
	s := Slice(tr, 15, 35)
	if len(s.Visits) != 1 || s.Visits[0].Landmark != 1 {
		t.Errorf("Slice = %+v", s.Visits)
	}
	if s.NumNodes != tr.NumNodes || s.NumLandmarks != tr.NumLandmarks {
		t.Error("Slice changed dimensions")
	}
}

func TestClone(t *testing.T) {
	tr := mkTrace(Visit{Node: 0, Landmark: 0, Start: 0, End: 1})
	cp := tr.Clone()
	cp.Visits[0].Landmark = 0
	cp.Visits = append(cp.Visits, Visit{})
	if len(tr.Visits) != 1 {
		t.Error("Clone shares visit slice")
	}
}

// TestDerivedReadsFollowEdits edits a trace in place between reads: every
// derived artifact is computed from the current visits, so the second read
// must see the appended visit and the edited one.
func TestDerivedReadsFollowEdits(t *testing.T) {
	tr := mkTrace(
		Visit{Node: 0, Landmark: 0, Start: 0, End: 10},
		Visit{Node: 1, Landmark: 1, Start: 5, End: 15},
	)
	if s, e := tr.Span(); s != 0 || e != 15 {
		t.Fatalf("Span = (%d, %d), want (0, 15)", s, e)
	}
	if got := len(tr.VisitsByNode()[0]); got != 1 {
		t.Fatalf("node 0 has %d visits, want 1", got)
	}

	tr.Visits = append(tr.Visits, Visit{Node: 0, Landmark: 1, Start: 20, End: 40})
	if s, e := tr.Span(); s != 0 || e != 40 {
		t.Errorf("after append: Span = (%d, %d), want (0, 40)", s, e)
	}
	if got := tr.VisitsByNode()[0]; len(got) != 2 || got[1].End != 40 {
		t.Errorf("after append: node 0 visits = %+v, want 2 ending at 40", got)
	}

	tr.Visits[1].End = 50
	if _, e := tr.Span(); e != 50 {
		t.Errorf("after in-place edit: Span end = %d, want 50", e)
	}
	if got := tr.VisitsByNode()[1]; got[0].End != 50 {
		t.Errorf("after in-place edit: node 1 visit = %+v, want End 50", got[0])
	}
}
