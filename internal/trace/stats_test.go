package trace

import (
	"math"
	"testing"
)

func statsTrace() *Trace {
	// Node 0 commutes 0<->1 repeatedly; node 1 visits 2 once from 1.
	var visits []Visit
	t := Time(0)
	for i := 0; i < 6; i++ {
		lm := i % 2
		visits = append(visits, Visit{Node: 0, Landmark: lm, Start: t, End: t + 100})
		t += 200
	}
	visits = append(visits,
		Visit{Node: 1, Landmark: 1, Start: 0, End: 100},
		Visit{Node: 1, Landmark: 2, Start: 300, End: 400},
	)
	return mkTrace(visits...)
}

func TestVisitCountsAndTop(t *testing.T) {
	tr := statsTrace()
	counts := VisitCounts(tr)
	if counts[0][0] != 3 || counts[1][0] != 3 || counts[1][1] != 1 {
		t.Errorf("counts = %v", counts)
	}
	top := TopLandmarks(tr, 2)
	if top[0] != 1 { // landmark 1 has 4 visits total
		t.Errorf("top = %v", top)
	}
	dist := VisitingDistribution(tr, 1)
	if dist[0] != 3 || dist[1] != 1 {
		t.Errorf("distribution = %v", dist)
	}
}

func TestBandwidths(t *testing.T) {
	tr := statsTrace() // duration 1100 s
	unit := Time(1100)
	bws := Bandwidths(tr, unit)
	// Transits: 0->1 x3? visits 0,1,0,1,0,1 -> transits 0->1, 1->0, 0->1,
	// 1->0, 0->1 = three 0->1 and two 1->0; plus 1->2 once.
	m := map[Link]float64{}
	for _, b := range bws {
		m[b.Link] = b.Bandwidth
	}
	if math.Abs(m[Link{0, 1}]-3) > 1e-9 || math.Abs(m[Link{1, 0}]-2) > 1e-9 || math.Abs(m[Link{1, 2}]-1) > 1e-9 {
		t.Errorf("bandwidths = %v", m)
	}
	// Decreasing order.
	for i := 1; i < len(bws); i++ {
		if bws[i].Bandwidth > bws[i-1].Bandwidth {
			t.Error("bandwidths not sorted decreasing")
		}
	}
}

func TestMatchingSymmetry(t *testing.T) {
	tr := statsTrace()
	sym := MatchingSymmetry(tr, Time(1100))
	// Only the 0<->1 pair matches: ratio 2/3.
	if len(sym) != 1 || math.Abs(sym[0]-2.0/3.0) > 1e-9 {
		t.Errorf("symmetry = %v", sym)
	}
}

func TestBandwidthSeries(t *testing.T) {
	tr := statsTrace()
	s := BandwidthSeries(tr, Link{0, 1}, 400)
	var total float64
	for _, v := range s {
		total += v
	}
	if total != 3 {
		t.Errorf("series total = %v, want 3 (%v)", total, s)
	}
}

func TestLinkReverse(t *testing.T) {
	l := Link{From: 3, To: 7}
	if l.Reverse() != (Link{From: 7, To: 3}) {
		t.Errorf("Reverse = %v", l.Reverse())
	}
}
