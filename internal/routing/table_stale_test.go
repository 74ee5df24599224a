package routing

import (
	"slices"
	"sync"
	"testing"
)

// staleFixture is a table owned by landmark 0 whose row staleDest is
// reached through neighbours 1-4, each over a unit link: the candidate via
// nbr is 1 + the value nbr advertises for staleDest.
type staleFixture struct {
	t   *testing.T
	tb  *Table
	seq int
}

const staleDest = 7

func newStaleFixture(t *testing.T, adv ...float64) *staleFixture {
	f := &staleFixture{t: t, tb: NewTable(0, 8)}
	for i, v := range adv {
		f.tb.SetLinkDelay(i+1, 1)
		f.advertise(i+1, v)
	}
	f.tb.Entries()
	return f
}

// advertise makes nbr advertise v for staleDest (and nothing else).
func (f *staleFixture) advertise(nbr int, v float64) {
	f.seq++
	vec := infVec(f.tb.Size())
	vec[staleDest] = v
	f.tb.MergeVector(nbr, vec, f.seq)
}

// expect checks the row's lazy state and best route without resolving it,
// checks a copy against the reference recompute, and finally checks the
// resolved Lookup.
func (f *staleFixture) expect(state uint8, next int, delay float64, backup int, bakDelay float64) {
	f.t.Helper()
	tb := f.tb
	if err := tb.Snapshot().CheckFull(); err != nil {
		f.t.Fatal(err)
	}
	if got := tb.state[staleDest]; got != state {
		f.t.Fatalf("row state %b, want %b", got, state)
	}
	if n, d := tb.NextHop(staleDest); n != next || d != delay {
		f.t.Fatalf("NextHop = (%d, %g), want (%d, %g)", n, d, next, delay)
	}
	if state == rowStale && tb.state[staleDest] != rowStale {
		f.t.Fatal("NextHop resolved a stale backup")
	}
	gen := tb.Gen()
	e, _ := tb.Lookup(staleDest)
	if e.Next != next || e.Delay != delay || e.Backup != backup || e.BackupDelay != bakDelay {
		f.t.Fatalf("Lookup = %+v, want next %d delay %g backup %d bakDelay %g", e, next, delay, backup, bakDelay)
	}
	if tb.state[staleDest] != 0 {
		f.t.Fatalf("Lookup left row state %b", tb.state[staleDest])
	}
	if state == rowStale && tb.Gen() == gen {
		f.t.Error("resolving a stale backup did not bump the generation")
	}
}

// TestTableStaleBranches walks each candidateIs transition that enters,
// keeps or leaves the stale state, and one that falls back to a rescan.
func TestTableStaleBranches(t *testing.T) {
	t.Run("clean backup worsens", func(t *testing.T) {
		f := newStaleFixture(t, 1, 2, 3) // candidates 2, 3, 4
		f.advertise(2, 9)
		f.expect(rowStale, 1, 2, 3, 4)
	})
	t.Run("best worsens but beats backup", func(t *testing.T) {
		f := newStaleFixture(t, 1, 3, 4)
		f.advertise(1, 2)
		f.expect(0, 1, 3, 2, 4)
	})
	t.Run("backup promoted over worsened best", func(t *testing.T) {
		f := newStaleFixture(t, 1, 2, 3)
		f.advertise(1, 9)
		f.expect(rowStale, 2, 3, 3, 4)
	})
	t.Run("only route lost", func(t *testing.T) {
		f := newStaleFixture(t, 1)
		f.advertise(1, Infinite)
		f.expect(0, -1, Infinite, -1, Infinite)
		if _, ok := f.tb.Lookup(staleDest); ok || f.tb.Len() != 1 {
			t.Errorf("Len() = %d, want 1 (only the neighbour itself)", f.tb.Len())
		}
	})
	t.Run("stale best improves", func(t *testing.T) {
		f := newStaleFixture(t, 1, 2, 3)
		f.advertise(2, 9) // stale, bound (3 via 2)
		f.advertise(1, 0)
		f.expect(rowStale, 1, 1, 3, 4)
	})
	t.Run("stale best worsens within bound", func(t *testing.T) {
		f := newStaleFixture(t, 1, 3, 4)
		f.advertise(2, 9) // stale, bound (4 via 2)
		f.advertise(1, 2)
		f.expect(rowStale, 1, 3, 3, 5)
	})
	t.Run("stale best worsens past bound", func(t *testing.T) {
		f := newStaleFixture(t, 1, 2, 3)
		f.advertise(2, 9) // stale, bound (3 via 2)
		f.advertise(1, 5)
		f.expect(rowDirty|rowStale, 3, 4, 1, 6)
	})
	t.Run("stale row gets a new best", func(t *testing.T) {
		f := newStaleFixture(t, 1, 2, 3)
		f.advertise(2, 9)
		f.advertise(4, 0)
		f.tb.SetLinkDelay(4, 1)
		f.expect(0, 4, 1, 1, 2)
	})
	t.Run("stale row candidate beats bound", func(t *testing.T) {
		f := newStaleFixture(t, 1, 2, 3)
		f.advertise(2, 9)
		f.advertise(3, 1.5)
		f.expect(0, 1, 2, 3, 2.5)
	})
	t.Run("stale row candidate ties bound at a higher index", func(t *testing.T) {
		// Candidates 2, 3, 3, Inf: the bound after the backup worsens is
		// (3 via 2), and the exact backup the tie (3 via 3). A candidate
		// equal to the bound via a higher index (4) must not displace it.
		f := newStaleFixture(t, 1, 2, 2)
		f.tb.SetLinkDelay(4, 1)
		f.advertise(2, 9)
		f.advertise(4, 2)
		f.expect(rowStale, 1, 2, 3, 3)
	})
}

// TestTableAccessors covers the small read accessors the router uses.
func TestTableAccessors(t *testing.T) {
	tb := NewTable(0, 5)
	if tb.Size() != 5 || tb.Gen() != 0 {
		t.Fatalf("fresh table: Size %d Gen %d", tb.Size(), tb.Gen())
	}
	tb.SetLinkDelay(3, 2)
	tb.SetLinkDelay(1, 4)
	if tb.LinkDelay(3) != 2 || tb.LinkDelay(2) != Infinite || tb.LinkDelay(-1) != Infinite || tb.LinkDelay(5) != Infinite {
		t.Error("LinkDelay: wrong value for a linked, unlinked or out-of-range neighbour")
	}
	if got := tb.AppendNextHops(nil); !slices.Equal(got, []int{-1, 1, -1, 3, -1}) {
		t.Errorf("AppendNextHops = %v, want [-1 1 -1 3 -1]", got)
	}
	if n, d := tb.NextHop(5); n != -1 || d != Infinite {
		t.Errorf("NextHop(out of range) = (%d, %g)", n, d)
	}
	tb.Entries()
	gen := tb.Gen()
	if gen == 0 {
		t.Error("Gen = 0 after two routed changes and a full resolve")
	}
	if tb.Entries(); tb.Gen() != gen {
		t.Error("Entries without mutation changed the generation")
	}
}

// staleTable returns a table with many stale rows: every destination is
// reached through three neighbours, and the backup neighbour's
// advertisement then worsens everywhere.
func staleTable(t *testing.T) *Table {
	const size = 40
	tb := NewTable(0, size)
	for nbr := 1; nbr <= 3; nbr++ {
		tb.SetLinkDelay(nbr, 1)
		vec := make([]float64, size)
		for d := range vec {
			vec[d] = float64(nbr)
		}
		tb.MergeVector(nbr, vec, 1)
	}
	tb.Entries()
	worse := make([]float64, size)
	for d := range worse {
		worse[d] = 9
	}
	tb.MergeVector(2, worse, 2)
	if staleRows(tb) < size-4 {
		t.Fatalf("fixture has %d stale rows", staleRows(tb))
	}
	return tb
}

// TestTableConcurrentSnapshots takes Snapshots of one frozen table with
// stale rows from several goroutines (the race detector checks Snapshot is
// a pure read) and requires every copy to check out and to carry the
// stale rows over unresolved.
func TestTableConcurrentSnapshots(t *testing.T) {
	tb := staleTable(t)
	want := staleRows(tb)
	snaps := make([]*Table, 4)
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[i] = tb.Snapshot()
		}()
	}
	wg.Wait()
	if staleRows(tb) != want {
		t.Fatalf("Snapshot resolved stale rows: %d left of %d", staleRows(tb), want)
	}
	for i, cp := range snaps {
		if staleRows(cp) != want {
			t.Errorf("snapshot %d carries %d stale rows, want %d", i, staleRows(cp), want)
		}
		if err := cp.CheckFull(); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
}

// TestTableEntriesLeavesNoStaleRow requires Entries to resolve every
// stale row, so Lookup and Entries afterwards are pure reads: concurrent
// readers (run under the race detector) must not write, and the generation
// must not move.
func TestTableEntriesLeavesNoStaleRow(t *testing.T) {
	tb := staleTable(t)
	tb.Entries()
	gen := tb.Gen()
	if n := staleRows(tb); n != 0 {
		t.Fatalf("Entries left %d stale rows", n)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < tb.Size(); d++ {
				tb.Lookup(d)
				tb.NextHop(d)
			}
			tb.Entries()
		}()
	}
	wg.Wait()
	if tb.Gen() != gen {
		t.Errorf("reads after a full resolve moved the generation from %d to %d", gen, tb.Gen())
	}
	if err := tb.CheckFull(); err != nil {
		t.Error(err)
	}
}
