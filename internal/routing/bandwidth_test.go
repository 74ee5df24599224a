package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// bruteEWMA is Eq. (4) written out per link: a link's estimate is its
// first applied count, then ρ·count + (1−ρ)·estimate for every later
// count of a newer unit.
type bruteEWMA struct {
	rho  float64
	bw   map[int]float64
	last map[int]int
}

func (b *bruteEWMA) apply(nbr int, count float64, seq int) bool {
	last, ok := b.last[nbr]
	switch {
	case ok && seq <= last:
		return false
	case ok:
		b.bw[nbr] = b.rho*count + (1-b.rho)*b.bw[nbr]
	default:
		b.bw[nbr] = count
	}
	b.last[nbr] = seq
	return true
}

// TestBandwidthMatchesBruteForce replays one random report sequence into
// the table and into two bruteEWMAs (reported and symmetric), and requires
// the same acceptance, estimates, Reported flags and Neighbors after every
// report: the reported estimate wins whenever one exists.
func TestBandwidthMatchesBruteForce(t *testing.T) {
	const n, rho = 6, 0.3
	rng := rand.New(rand.NewSource(11))
	bt := NewBandwidthTable(rho, n)
	rep := &bruteEWMA{rho: rho, bw: map[int]float64{}, last: map[int]int{}}
	sym := &bruteEWMA{rho: rho, bw: map[int]float64{}, last: map[int]int{}}
	for step := 0; step < 500; step++ {
		nbr := rng.Intn(n)
		count := float64(rng.Intn(4)) // zero counts decay links to no bandwidth
		seq := rng.Intn(step + 1)
		var got, want bool
		if rng.Intn(2) == 0 {
			got, want = bt.Apply(nbr, count, seq), rep.apply(nbr, count, seq)
		} else {
			got, want = bt.ApplySymmetric(nbr, count, seq), sym.apply(nbr, count, seq)
		}
		if got != want {
			t.Fatalf("step %d: applied %v, want %v", step, got, want)
		}
		var nbrs []int
		for i := 0; i < n; i++ {
			_, reported := rep.last[i]
			bw := sym.bw[i]
			if reported {
				bw = rep.bw[i]
			}
			if bt.Bandwidth(i) != bw || bt.Reported(i) != reported {
				t.Fatalf("step %d nbr %d: (%v, %v), want (%v, %v)", step, i,
					bt.Bandwidth(i), bt.Reported(i), bw, reported)
			}
			if bw > 0 {
				nbrs = append(nbrs, i)
			}
		}
		if got := bt.Neighbors(); !slices.Equal(got, nbrs) {
			t.Fatalf("step %d: Neighbors %v, want %v", step, got, nbrs)
		}
	}
}

// TestBandwidthCloneRoundTrip requires a clone to equal its source, field
// for field, and to evolve independently of it.
func TestBandwidthCloneRoundTrip(t *testing.T) {
	bt := NewBandwidthTable(0.5, 5)
	bt.Apply(1, 4, 0)
	bt.Apply(1, 8, 1)
	bt.ApplySymmetric(3, 2, 0)
	cp := bt.Clone()
	if !reflect.DeepEqual(cp, bt) {
		t.Fatalf("clone %+v differs from source %+v", cp, bt)
	}
	if !reflect.DeepEqual(cp.Clone(), bt) {
		t.Fatal("clone of clone differs from source")
	}
	cp.Apply(1, 100, 2)
	if bt.Bandwidth(1) != 6 {
		t.Errorf("mutating the clone changed the source to %v", bt.Bandwidth(1))
	}
}

// TestArrivalCounterMatchesBruteForce requires the counter to roll, unit
// after unit, one report per previous landmark that was counted or is
// known, in ascending From order, carrying that unit's arrival count.
func TestArrivalCounterMatchesBruteForce(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(5))
	c := NewArrivalCounter(n)
	for unit := 0; unit < 50; unit++ {
		counts := map[int]int{}
		for i := rng.Intn(12); i > 0; i-- {
			from := rng.Intn(n+1) - 1 // -1 = no previous landmark
			c.Record(from)
			if from >= 0 {
				counts[from]++
			}
		}
		var known []int
		for from := 0; from < n; from++ {
			if rng.Intn(3) == 0 {
				known = append(known, from)
			}
		}
		var want []BandwidthReport
		for from := 0; from < n; from++ {
			if counts[from] > 0 || slices.Contains(known, from) {
				want = append(want, BandwidthReport{From: from, To: 3, Count: counts[from], Seq: unit})
			}
		}
		if got := c.Roll(3, unit, known); !slices.Equal(got, want) {
			t.Fatalf("unit %d: rolled %+v, want %+v", unit, got, want)
		}
	}
}

// TestArrivalCounterCloneRoundTrip requires a clone to equal its source
// and to roll the same reports independently of it.
func TestArrivalCounterCloneRoundTrip(t *testing.T) {
	c := NewArrivalCounter(6)
	c.Record(1)
	c.Record(4)
	c.Record(4)
	cp := c.Clone()
	if !reflect.DeepEqual(cp, c) {
		t.Fatalf("clone %+v differs from source %+v", cp, c)
	}
	want := slices.Clone(c.Roll(0, 1, []int{2}))
	if got := cp.Roll(0, 1, []int{2}); !slices.Equal(got, want) {
		t.Errorf("clone rolled %+v, source %+v", got, want)
	}
	if !reflect.DeepEqual(cp.Clone(), c.Clone()) {
		t.Error("rolled clone and source diverged")
	}
}

// TestBandwidthConcurrentClone clones one frozen bandwidth table and one
// frozen arrival counter from several goroutines, as warm-state forks do;
// under -race this checks that both Clones only read their receiver.
func TestBandwidthConcurrentClone(t *testing.T) {
	bt := NewBandwidthTable(0.5, 8)
	c := NewArrivalCounter(8)
	for i := 0; i < 40; i++ {
		bt.Apply(i%8, float64(i%5), i/8)
		bt.ApplySymmetric((i+3)%8, float64(i%3), i/8)
		c.Record(i % 7)
	}
	wantBT, wantC := bt.Clone(), c.Clone()
	bts := make([]*BandwidthTable, 4)
	cs := make([]*ArrivalCounter, 4)
	var wg sync.WaitGroup
	for i := range bts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bts[i], cs[i] = bt.Clone(), c.Clone()
		}()
	}
	wg.Wait()
	for i := range bts {
		if !reflect.DeepEqual(bts[i], bt) || !reflect.DeepEqual(bt, wantBT) {
			t.Fatalf("bandwidth clone %d differs from the original", i)
		}
		if !reflect.DeepEqual(cs[i], c) || !reflect.DeepEqual(c, wantC) {
			t.Fatalf("arrival clone %d differs from the original", i)
		}
	}
}
