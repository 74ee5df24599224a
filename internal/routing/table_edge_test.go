package routing

import (
	"testing"

	"repro/internal/trace"
)

// Table-driven edge cases for the routing table: the degenerate topologies
// a scale run hits far more often than the paper's worked examples —
// unreachable destinations, links whose bandwidth collapsed to zero, and
// single-landmark networks.
func TestTableEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Table
		dest  int
		check func(t *testing.T, tb *Table, e Entry, ok bool)
	}{
		{
			name: "unreachable landmark",
			// 0-1 are linked; 3 advertises nothing and nobody reaches it.
			build: func() *Table {
				tb := NewTable(0, 4)
				tb.SetLinkDelay(1, 2)
				tb.MergeVector(1, []float64{2, 0, Infinite, Infinite}, 1)
				return tb
			},
			dest: 3,
			check: func(t *testing.T, tb *Table, e Entry, ok bool) {
				if ok {
					t.Fatalf("unreachable dest resolved: %+v", e)
				}
				if e.Next != -1 || e.Delay != Infinite || e.Backup != -1 {
					t.Errorf("unreachable entry = %+v, want next=-1 delay=Inf backup=-1", e)
				}
				if tb.Delay(3) != Infinite {
					t.Errorf("Delay(3) = %v, want Infinite", tb.Delay(3))
				}
				if got := tb.Len(); got != 1 {
					t.Errorf("Len() = %d, want 1 (only landmark 1 reachable)", got)
				}
			},
		},
		{
			name: "zero-bandwidth link",
			// A zero-bandwidth link converts to an Infinite delay
			// (LinkDelay), which must remove the neighbour entirely.
			build: func() *Table {
				tb := NewTable(0, 3)
				tb.SetLinkDelay(1, 5)
				tb.SetLinkDelay(2, LinkDelay(0, 3*trace.Day))
				return tb
			},
			dest: 2,
			check: func(t *testing.T, tb *Table, e Entry, ok bool) {
				if ok {
					t.Fatalf("zero-bandwidth neighbour routable: %+v", e)
				}
				if nbrs := tb.Neighbors(); len(nbrs) != 1 || nbrs[0] != 1 {
					t.Errorf("Neighbors() = %v, want [1]", nbrs)
				}
			},
		},
		{
			name: "link degrades to zero bandwidth",
			// A neighbour that was routable loses its link when the
			// bandwidth estimate collapses; routes through it must vanish.
			build: func() *Table {
				tb := NewTable(0, 3)
				tb.SetLinkDelay(1, 5)
				tb.MergeVector(1, []float64{5, 0, 4}, 1)
				if _, ok := tb.Lookup(2); !ok {
					panic("precondition: 2 reachable via 1")
				}
				tb.SetLinkDelay(1, LinkDelay(0, 3*trace.Day))
				return tb
			},
			dest: 2,
			check: func(t *testing.T, tb *Table, e Entry, ok bool) {
				if ok {
					t.Fatalf("route survived zero-bandwidth degradation: %+v", e)
				}
				if tb.Len() != 0 {
					t.Errorf("Len() = %d, want 0", tb.Len())
				}
			},
		},
		{
			name:  "single-landmark table",
			build: func() *Table { return NewTable(0, 1) },
			dest:  0,
			check: func(t *testing.T, tb *Table, e Entry, ok bool) {
				if ok {
					t.Fatalf("self-route resolved in single-landmark table: %+v", e)
				}
				if tb.Len() != 0 || len(tb.Entries()) != 0 {
					t.Errorf("Len()=%d Entries()=%v, want empty", tb.Len(), tb.Entries())
				}
				if c := tb.Coverage(1); c != 1 {
					t.Errorf("Coverage(1) = %v, want 1 (vacuous)", c)
				}
				if vec := tb.ToVector(); len(vec) != 1 || vec[0] != Infinite {
					t.Errorf("ToVector() = %v, want [Infinite]", vec)
				}
			},
		},
		{
			name: "out-of-range destination",
			build: func() *Table {
				tb := NewTable(0, 2)
				tb.SetLinkDelay(1, 1)
				return tb
			},
			dest: 7,
			check: func(t *testing.T, tb *Table, e Entry, ok bool) {
				if ok {
					t.Fatalf("out-of-range dest resolved: %+v", e)
				}
				if tb.Delay(-1) != Infinite || tb.Delay(7) != Infinite {
					t.Error("out-of-range Delay not Infinite")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := tc.build()
			e, ok := tb.Lookup(tc.dest)
			tc.check(t, tb, e, ok)
		})
	}
}

// TestTableMutatorsRejectBadInput covers the guard clauses scale runs rely
// on: self/out-of-range neighbours and mis-sized vectors are ignored
// without corrupting the table.
func TestTableMutatorsRejectBadInput(t *testing.T) {
	tb := NewTable(1, 3)
	tb.SetLinkDelay(1, 5)  // self
	tb.SetLinkDelay(-1, 5) // out of range
	tb.SetLinkDelay(3, 5)  // out of range
	if len(tb.Neighbors()) != 0 {
		t.Errorf("Neighbors() = %v after rejected SetLinkDelay calls", tb.Neighbors())
	}
	if tb.MergeVector(1, []float64{0, 0, 0}, 1) {
		t.Error("MergeVector accepted a self vector")
	}
	if tb.MergeVector(0, []float64{0, 0}, 1) {
		t.Error("MergeVector accepted a mis-sized vector")
	}
	if tb.MergeVectorForced(5, []float64{0, 0, 0}, 1) {
		t.Error("MergeVectorForced accepted an out-of-range neighbour")
	}
	if tb.Len() != 0 {
		t.Errorf("Len() = %d after rejected mutations, want 0", tb.Len())
	}
}

// TestTableFoldGuard pins the cases where the bulk folds' guard (canMove)
// must let a candidate through although its neighbour holds neither the
// best nor the backup. Each case fails on one wrong guard: comparing
// delays with < instead of beats, requiring a backup to exist, and
// testing a stale row's candidates against its best instead of its bound.
func TestTableFoldGuard(t *testing.T) {
	t.Run("index tie with the backup", func(t *testing.T) {
		// Candidates 2 via 1, 10 via 2, 3 via 3. Neighbour 2 drops to 3,
		// equal to the backup's delay at a smaller index, and takes it.
		f := newStaleFixture(t, 1, 9, 2)
		f.expect(0, 1, 2, 3, 3)
		f.advertise(2, 2)
		f.expect(0, 1, 2, 2, 3)
	})
	t.Run("row without a backup", func(t *testing.T) {
		// Only neighbour 1 reaches the row. Neighbour 2's vector arrives
		// before its link; the link then makes its candidate 6, the backup.
		f := newStaleFixture(t, 1)
		f.advertise(2, 5)
		f.expect(0, 1, 2, -1, Infinite)
		f.tb.SetLinkDelay(2, 1)
		f.expect(0, 1, 2, 2, 6)
	})
	t.Run("stale bound holder improves past the bound", func(t *testing.T) {
		// Candidates 2, 3, 4; neighbour 2's worsening leaves the bound
		// (3 via 2). Its candidate then drops to 2.5: behind the best,
		// ahead of the bound, so it is the exact backup.
		f := newStaleFixture(t, 1, 2, 3)
		f.advertise(2, 9)
		f.advertise(2, 1.5)
		f.expect(0, 1, 2, 2, 2.5)
	})
}
