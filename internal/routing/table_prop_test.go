package routing

import (
	"math/rand"
	"slices"
	"testing"
)

// The incremental table maintains rows by folding candidate deltas in
// place (candidateIs), leaving a worsened backup stale as a lower bound
// and rescanning a row only when its best is lost or a reader needs the
// backup. These property tests drive randomized mutation sequences —
// bandwidth-driven link-delay changes, vector merges (fresh, stale and
// forced), neighbour removals — and assert after every step that the
// incrementally maintained Entry state is bit-identical to the reference
// full recompute (CheckFull), and that a shadow table replaying the same
// mutations answers every Lookup identically.

// randDelay draws a link or advertised delay: mostly small finite values
// with deliberate ties (coarse grid) so the (delay, index) tie-break paths
// are exercised, sometimes Infinite.
func randDelay(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return Infinite
	case 1, 2:
		return float64(rng.Intn(4) + 1) // dense tie range
	default:
		return float64(rng.Intn(50)+1) * 0.5
	}
}

func randVector(rng *rand.Rand, size int) []float64 {
	vec := make([]float64, size)
	for i := range vec {
		vec[i] = randDelay(rng)
	}
	return vec
}

// mutate applies one random mutation to tb and returns the updated
// advertisement sequence.
func mutate(rng *rand.Rand, tb *Table, seq int) int {
	nbr := rng.Intn(tb.Size())
	switch rng.Intn(5) {
	case 0, 1: // bandwidth change -> link delay update
		tb.SetLinkDelay(nbr, randDelay(rng))
	case 2: // fresh or stale advertisement
		seq++
		s := seq
		if rng.Intn(4) == 0 {
			s = rng.Intn(seq + 1) // possibly stale
		}
		tb.MergeVector(nbr, randVector(rng, tb.Size()), s)
	case 3: // forced re-advertisement (loop correction)
		tb.MergeVectorForced(nbr, randVector(rng, tb.Size()), rng.Intn(seq+1))
	case 4: // link loss
		tb.SetLinkDelay(nbr, Infinite)
	}
	return seq
}

// TestTableIncrementalEquivalence drives one table with a random mutation
// sequence and cross-checks the incremental state against the full
// recompute after every mutation.
func TestTableIncrementalEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(12) + 3
		owner := rng.Intn(size)
		tb := NewTable(owner, size)
		seq := 0
		for step := 0; step < 400; step++ {
			seq = mutate(rng, tb, seq)
			if rng.Intn(4) == 0 { // interleave reads so rescans apply mid-sequence
				tb.Delay(rng.Intn(size))
			}
			if err := tb.CheckFull(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
}

// TestTableIncrementalMatchesReplay replays one mutation sequence into two
// tables, reading (and thereby refreshing) them on different schedules,
// and requires identical Lookup answers for every destination at random
// checkpoints — deferred rescans must never change what a reader observes.
func TestTableIncrementalMatchesReplay(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		size := rng.Intn(10) + 4
		owner := 0
		a := NewTable(owner, size)
		b := NewTable(owner, size)
		seq := 0
		for step := 0; step < 300; step++ {
			nbr := rng.Intn(size)
			switch rng.Intn(4) {
			case 0, 1:
				d := randDelay(rng)
				a.SetLinkDelay(nbr, d)
				b.SetLinkDelay(nbr, d)
			case 2:
				seq++
				vec := randVector(rng, size)
				a.MergeVector(nbr, vec, seq)
				b.MergeVector(nbr, vec, seq)
			case 3:
				vec := randVector(rng, size)
				s := rng.Intn(seq + 1)
				a.MergeVectorForced(nbr, vec, s)
				b.MergeVectorForced(nbr, vec, s)
			}
			// a is read eagerly every step; b only at checkpoints, so its
			// dirty set accumulates across mutations before it rescans.
			a.Delay(rng.Intn(size))
			if rng.Intn(8) == 0 {
				for d := 0; d < size; d++ {
					ea, oka := a.Lookup(d)
					eb, okb := b.Lookup(d)
					if oka != okb || ea != eb {
						t.Fatalf("seed %d step %d dest %d: eager %+v (%v) vs deferred %+v (%v)",
							seed, step, d, ea, oka, eb, okb)
					}
				}
			}
		}
	}
}

// TestTableSnapshotCarriesDirtyState snapshots a table mid-sequence (with
// rescans pending) and checks the copy converges to the same state.
func TestTableSnapshotCarriesDirtyState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	size := 8
	tb := NewTable(2, size)
	seq := 0
	for step := 0; step < 100; step++ {
		nbr := rng.Intn(size)
		if rng.Intn(2) == 0 {
			tb.SetLinkDelay(nbr, randDelay(rng))
		} else {
			seq++
			tb.MergeVector(nbr, randVector(rng, size), seq)
		}
		cp := tb.Snapshot()
		for d := 0; d < size; d++ {
			eo, oko := tb.Lookup(d)
			ec, okc := cp.Lookup(d)
			if oko != okc || eo != ec {
				t.Fatalf("step %d dest %d: original %+v (%v) vs snapshot %+v (%v)", step, d, eo, oko, ec, okc)
			}
		}
		if err := cp.CheckFull(); err != nil {
			t.Fatalf("step %d snapshot: %v", step, err)
		}
	}
}

// TestTableLazyBackupEquivalence drives one table through random mutations
// while reading it the way the router does — mostly NextHop, Delay and
// Lookup, now and then a full resolve (Entries) — and checks a
// Snapshot of it against the reference recompute after every step. The
// check runs on the copy, so the table's own stale rows stay stale and
// keep receiving mutations; CheckFull on the table itself (as
// TestTableIncrementalEquivalence does) would resolve them first. Every
// read is compared with the checked copy's exact values.
func TestTableLazyBackupEquivalence(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() {
		seeds = 200
	}
	staleFolds := 0 // mutations applied while some row was stale
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed + 5000))
		size := rng.Intn(10) + 3
		tb := NewTable(rng.Intn(size), size)
		seq := 0
		for step := 0; step < 300; step++ {
			if staleRows(tb) > 0 {
				staleFolds++
			}
			seq = mutate(rng, tb, seq)
			ref := tb.Snapshot()
			if err := ref.CheckFull(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			d := rng.Intn(size)
			switch rng.Intn(20) {
			case 0:
				if tb.Entries(); staleRows(tb) != 0 {
					t.Fatalf("seed %d step %d: Entries left %d stale rows", seed, step, staleRows(tb))
				}
			case 1:
				if got, want := tb.Entries(), ref.Entries(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: Entries %+v, want %+v", seed, step, got, want)
				}
			case 2, 3, 4, 5:
				got, gotOK := tb.Lookup(d)
				want, wantOK := ref.Lookup(d)
				if got != want || gotOK != wantOK {
					t.Fatalf("seed %d step %d dest %d: Lookup %+v (%v), want %+v (%v)", seed, step, d, got, gotOK, want, wantOK)
				}
			case 6, 7, 8, 9, 10, 11:
				if got := tb.Delay(d); got != ref.delay[d] {
					t.Fatalf("seed %d step %d dest %d: Delay %g, want %g", seed, step, d, got, ref.delay[d])
				}
			default:
				next, delay := tb.NextHop(d)
				if next != ref.next[d] || delay != ref.delay[d] {
					t.Fatalf("seed %d step %d dest %d: NextHop (%d, %g), want (%d, %g)", seed, step, d, next, delay, ref.next[d], ref.delay[d])
				}
			}
		}
	}
	if staleFolds == 0 {
		t.Fatal("no mutation reached a table with a stale row")
	}
}

// staleRows counts the rows whose backup is an unresolved lower bound.
func staleRows(tb *Table) int {
	n := 0
	for _, s := range tb.state {
		if s&rowStale != 0 {
			n++
		}
	}
	return n
}
