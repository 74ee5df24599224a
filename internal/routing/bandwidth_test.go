package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestBandwidthDenseMatchesMap replays one random report sequence into a
// map-backed and a dense (SetDomain) bandwidth table and requires the same
// acceptance, estimates, Reported flags and Neighbors after every report.
func TestBandwidthDenseMatchesMap(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(11))
	sparse := NewBandwidthTable(0.3)
	dense := NewBandwidthTable(0.3)
	dense.SetDomain(n)
	for step := 0; step < 500; step++ {
		nbr := rng.Intn(n)
		count := float64(rng.Intn(4)) // zero counts decay links to no bandwidth
		seq := rng.Intn(step + 1)
		var a, b bool
		if rng.Intn(2) == 0 {
			a, b = sparse.Apply(nbr, count, seq), dense.Apply(nbr, count, seq)
		} else {
			a, b = sparse.ApplySymmetric(nbr, count, seq), dense.ApplySymmetric(nbr, count, seq)
		}
		if a != b {
			t.Fatalf("step %d: map applied %v, dense %v", step, a, b)
		}
		for i := 0; i < n; i++ {
			if sparse.Bandwidth(i) != dense.Bandwidth(i) || sparse.Reported(i) != dense.Reported(i) {
				t.Fatalf("step %d nbr %d: map (%v, %v), dense (%v, %v)", step, i,
					sparse.Bandwidth(i), sparse.Reported(i), dense.Bandwidth(i), dense.Reported(i))
			}
		}
		if got, want := dense.Neighbors(), sparse.Neighbors(); !slices.Equal(got, want) {
			t.Fatalf("step %d: dense Neighbors %v, map %v", step, got, want)
		}
	}
}

// TestBandwidthSetDomainAfterApply checks SetDomain is a no-op once the map
// path holds state, so no estimate is lost.
func TestBandwidthSetDomainAfterApply(t *testing.T) {
	bt := NewBandwidthTable(0.5)
	bt.Apply(2, 6, 0)
	bt.SetDomain(4)
	if bt.repV != nil || bt.Bandwidth(2) != 6 {
		t.Errorf("SetDomain after Apply: dense %v, estimate %v", bt.repV != nil, bt.Bandwidth(2))
	}
	bt.SetDomain(0) // non-positive domains are ignored too
	if bt.repV != nil {
		t.Error("SetDomain(0) switched to dense storage")
	}
}

// TestBandwidthCloneRoundTrip requires a clone to equal its source, field
// for field, in both storage modes, and to evolve independently of it.
func TestBandwidthCloneRoundTrip(t *testing.T) {
	for _, dense := range []bool{false, true} {
		bt := NewBandwidthTable(0.5)
		if dense {
			bt.SetDomain(5)
		}
		bt.Apply(1, 4, 0)
		bt.Apply(1, 8, 1)
		bt.ApplySymmetric(3, 2, 0)
		cp := bt.Clone()
		if !reflect.DeepEqual(cp, bt) {
			t.Fatalf("dense=%v: clone %+v differs from source %+v", dense, cp, bt)
		}
		if !reflect.DeepEqual(cp.Clone(), bt) {
			t.Fatalf("dense=%v: clone of clone differs from source", dense)
		}
		cp.Apply(1, 100, 2)
		if bt.Bandwidth(1) != 6 {
			t.Errorf("dense=%v: mutating the clone changed the source to %v", dense, bt.Bandwidth(1))
		}
	}
}

// TestArrivalCounterDenseMatchesMap requires the dense (SetDomain) counter
// to roll the same reports as the map-backed one, in the same order.
func TestArrivalCounterDenseMatchesMap(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(5))
	sparse := NewArrivalCounter()
	dense := NewArrivalCounter()
	dense.SetDomain(n)
	for unit := 0; unit < 50; unit++ {
		for i := rng.Intn(12); i > 0; i-- {
			from := rng.Intn(n+1) - 1 // -1 = no previous landmark
			sparse.Record(from)
			dense.Record(from)
		}
		var known []int
		for from := 0; from < n; from++ {
			if rng.Intn(3) == 0 {
				known = append(known, from)
			}
		}
		want := slices.Clone(sparse.Roll(3, unit, known))
		if got := dense.Roll(3, unit, known); !slices.Equal(got, want) {
			t.Fatalf("unit %d: dense %+v, map %+v", unit, got, want)
		}
	}
}

// TestArrivalCounterCloneRoundTrip requires a clone to equal its source
// and to roll the same reports independently of it, in both storage modes.
// SetDomain on a counter that already counted is a no-op.
func TestArrivalCounterCloneRoundTrip(t *testing.T) {
	for _, dense := range []bool{false, true} {
		c := NewArrivalCounter()
		if dense {
			c.SetDomain(6)
		}
		c.Record(1)
		c.Record(4)
		c.Record(4)
		cp := c.Clone()
		if !reflect.DeepEqual(cp, c) {
			t.Fatalf("dense=%v: clone %+v differs from source %+v", dense, cp, c)
		}
		want := slices.Clone(c.Roll(0, 1, []int{2}))
		if got := cp.Roll(0, 1, []int{2}); !slices.Equal(got, want) {
			t.Errorf("dense=%v: clone rolled %+v, source %+v", dense, got, want)
		}
		if !reflect.DeepEqual(cp.Clone(), c.Clone()) {
			t.Errorf("dense=%v: rolled clone and source diverged", dense)
		}
	}
	c := NewArrivalCounter()
	c.Record(2)
	c.SetDomain(4)
	if c.cnt != nil {
		t.Error("SetDomain switched a counter that already counted")
	}
}
