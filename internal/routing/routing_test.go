package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// TestFig7WorkedExample reproduces the routing-table update of Fig. 7:
// the table on l_i initially holds (dest, next, delay) entries
// (1,1,8), (4,7,20), (7,7,6), (9,7,34); a distance vector from l_6 with
// link delay 7 claims delays {3:10, 9:30, 4:11}. Afterwards the entries
// are (1,1,8), (3,6,17), (4,6,18), (7,7,6), (9,7,34).
func TestFig7WorkedExample(t *testing.T) {
	tb := NewTable(0, 10)
	// Initial state: direct link to 1 (delay 8) and to 7 (delay 6), with
	// 7 advertising 4 at 14 and 9 at 28.
	tb.SetLinkDelay(1, 8)
	tb.SetLinkDelay(7, 6)
	vec7 := infVec(10)
	vec7[4], vec7[9] = 14, 28
	tb.MergeVector(7, vec7, 1)

	check := func(dest, next int, delay float64) {
		t.Helper()
		e, ok := tb.Lookup(dest)
		if !ok || e.Next != next || math.Abs(e.Delay-delay) > 1e-9 {
			t.Errorf("entry %d = (%d, %v, ok=%v), want (%d, %v)", dest, e.Next, e.Delay, ok, next, delay)
		}
	}
	check(1, 1, 8)
	check(4, 7, 20)
	check(7, 7, 6)
	check(9, 7, 34)

	// The vector from l6 arrives.
	tb.SetLinkDelay(6, 7)
	vec6 := infVec(10)
	vec6[3], vec6[9], vec6[4] = 10, 30, 11
	tb.MergeVector(6, vec6, 1)

	check(1, 1, 8)  // unchanged
	check(3, 6, 17) // inserted: no entry for 3 existed
	check(4, 6, 18) // improved: 18 < 20, next hop switches to 6
	check(7, 7, 6)  // unchanged
	check(9, 7, 34) // kept: 37 via 6 is worse
	check(6, 6, 7)  // the new neighbour itself is reachable directly
	if tb.Len() != 6 {
		t.Errorf("Len = %d, want 6", tb.Len())
	}
}

func infVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = Infinite
	}
	return v
}

func TestBackupNextHop(t *testing.T) {
	tb := NewTable(0, 5)
	tb.SetLinkDelay(1, 1)
	tb.SetLinkDelay(2, 2)
	v1 := infVec(5)
	v1[4] = 10
	tb.MergeVector(1, v1, 1)
	v2 := infVec(5)
	v2[4] = 10
	tb.MergeVector(2, v2, 1)
	e, ok := tb.Lookup(4)
	if !ok || e.Next != 1 || e.Delay != 11 {
		t.Fatalf("best = %+v", e)
	}
	if e.Backup != 2 || e.BackupDelay != 12 {
		t.Errorf("backup = (%d, %v), want (2, 12)", e.Backup, e.BackupDelay)
	}
	// Direct neighbour entries get the other neighbour as backup when it
	// advertises a route there.
	v2b := infVec(5)
	v2b[4] = 10
	v2b[1] = 3
	tb.MergeVector(2, v2b, 2)
	e, _ = tb.Lookup(1)
	if e.Next != 1 || e.Backup != 2 || e.BackupDelay != 5 {
		t.Errorf("entry 1 = %+v", e)
	}
}

func TestMergeVectorStaleness(t *testing.T) {
	tb := NewTable(0, 4)
	tb.SetLinkDelay(1, 1)
	v := infVec(4)
	v[2] = 5
	if !tb.MergeVector(1, v, 3) {
		t.Fatal("fresh vector rejected")
	}
	v2 := infVec(4)
	v2[2] = 1
	if tb.MergeVector(1, v2, 3) {
		t.Error("same-seq vector accepted")
	}
	if tb.MergeVector(1, v2, 2) {
		t.Error("older vector accepted")
	}
	if d := tb.Delay(2); d != 6 {
		t.Errorf("delay = %v, want 6 (stale merge must not apply)", d)
	}
	// Forced merge overrides regardless.
	if !tb.MergeVectorForced(1, v2, 1) {
		t.Error("forced merge rejected")
	}
	if d := tb.Delay(2); d != 2 {
		t.Errorf("delay after forced = %v, want 2", d)
	}
	// And the stored sequence moved past the old one.
	if tb.MergeVector(1, v, 3) {
		t.Error("stale vector accepted after forced merge bumped the sequence")
	}
}

func TestSelfRoutesExcluded(t *testing.T) {
	tb := NewTable(2, 4)
	tb.SetLinkDelay(1, 1)
	v := infVec(4)
	v[2] = 0.5 // neighbour claims a route to ourselves
	tb.MergeVector(1, v, 1)
	if _, ok := tb.Lookup(2); ok {
		t.Error("table contains a route to its own landmark")
	}
}

func TestLinkRemoval(t *testing.T) {
	tb := NewTable(0, 4)
	tb.SetLinkDelay(1, 2)
	if tb.Delay(1) != 2 {
		t.Fatal("direct route missing")
	}
	tb.SetLinkDelay(1, Infinite)
	if _, ok := tb.Lookup(1); ok {
		t.Error("route survived link removal")
	}
	if len(tb.Neighbors()) != 0 {
		t.Error("neighbour survived link removal")
	}
}

func TestCoverageAndChanges(t *testing.T) {
	tb := NewTable(0, 5)
	tb.SetLinkDelay(1, 1)
	if c := tb.Coverage(5); c != 0.25 {
		t.Errorf("coverage = %v, want 0.25", c)
	}
	snap := tb.Snapshot()
	tb.SetLinkDelay(2, 1)
	if n := NextHopChanges(snap, tb); n != 1 {
		t.Errorf("changes = %d, want 1", n)
	}
}

// Property: Lookup always returns the minimum over neighbours of
// linkDelay + advertised delay (with the direct-link special case).
func TestRecomputeIsMinimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 3 + r.Intn(8)
		tb := NewTable(0, size)
		link := make([]float64, size)
		vecs := make([][]float64, size)
		for n := 1; n < size; n++ {
			if r.Float64() < 0.5 {
				continue
			}
			link[n] = 1 + r.Float64()*10
			tb.SetLinkDelay(n, link[n])
			v := infVec(size)
			for d := 1; d < size; d++ {
				if r.Float64() < 0.5 {
					v[d] = r.Float64() * 20
				}
			}
			vecs[n] = v
			tb.MergeVector(n, v, 1)
		}
		for d := 1; d < size; d++ {
			want := Infinite
			for n := 1; n < size; n++ {
				if link[n] == 0 {
					continue
				}
				cand := Infinite
				if n == d {
					cand = link[n]
				}
				if vecs[n] != nil && vecs[n][d] < Infinite && link[n]+vecs[n][d] < cand {
					cand = link[n] + vecs[n][d]
				}
				if cand < want {
					want = cand
				}
			}
			got := tb.Delay(d)
			if want >= Infinite {
				if _, ok := tb.Lookup(d); ok {
					return false
				}
			} else if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDetectLoop(t *testing.T) {
	if _, ok := DetectLoop([]int{1, 2, 3}); ok {
		t.Error("false positive on loop-free path")
	}
	members, ok := DetectLoop([]int{1, 2, 3, 4, 2})
	if !ok {
		t.Fatal("loop not detected")
	}
	want := []int{2, 3, 4}
	if len(members) != 3 || members[0] != want[0] || members[1] != want[1] || members[2] != want[2] {
		t.Errorf("members = %v, want %v", members, want)
	}
	if _, ok := DetectLoop([]int{7}); ok {
		t.Error("single-entry path cannot loop")
	}
}

func TestBandwidthEWMA(t *testing.T) {
	bt := NewBandwidthTable(0.5, 3)
	if !bt.Apply(1, 10, 0) {
		t.Fatal("first report rejected")
	}
	if b := bt.Bandwidth(1); b != 10 {
		t.Errorf("first estimate = %v, want 10 (no prior)", b)
	}
	if !bt.Apply(1, 20, 1) {
		t.Fatal("second report rejected")
	}
	if b := bt.Bandwidth(1); b != 15 { // 0.5*20 + 0.5*10
		t.Errorf("estimate = %v, want 15", b)
	}
	if bt.Apply(1, 99, 1) {
		t.Error("stale report accepted")
	}
}

func TestBandwidthSymmetricFallback(t *testing.T) {
	bt := NewBandwidthTable(0.5, 3)
	bt.ApplySymmetric(2, 8, 0)
	if b := bt.Bandwidth(2); b != 8 {
		t.Errorf("fallback = %v, want 8", b)
	}
	if bt.Reported(2) {
		t.Error("Reported should be false before a real report")
	}
	bt.Apply(2, 4, 0)
	if b := bt.Bandwidth(2); b != 4 {
		t.Errorf("reported estimate = %v, want 4 (overrides fallback)", b)
	}
	if !bt.Reported(2) {
		t.Error("Reported should be true")
	}
}

func TestLinkDelay(t *testing.T) {
	if d := LinkDelay(0, 3*trace.Day); d != Infinite {
		t.Errorf("zero bandwidth delay = %v, want Infinite", d)
	}
	if d := LinkDelay(2, 4*trace.Day); d != float64(2*trace.Day) {
		t.Errorf("delay = %v, want 2 days", d)
	}
}

func TestArrivalCounterRoll(t *testing.T) {
	c := NewArrivalCounter(9)
	c.Record(3)
	c.Record(3)
	c.Record(5)
	c.Record(-1) // ignored
	reps := c.Roll(9, 7, []int{3, 5, 8})
	if len(reps) != 3 {
		t.Fatalf("reports = %+v", reps)
	}
	byFrom := map[int]BandwidthReport{}
	for _, r := range reps {
		byFrom[r.From] = r
		if r.To != 9 || r.Seq != 7 {
			t.Errorf("report = %+v", r)
		}
	}
	if byFrom[3].Count != 2 || byFrom[5].Count != 1 || byFrom[8].Count != 0 {
		t.Errorf("counts = %+v", byFrom)
	}
	// Rolled clean.
	if reps := c.Roll(9, 8, nil); len(reps) != 0 {
		t.Errorf("second roll = %+v, want empty", reps)
	}
}
