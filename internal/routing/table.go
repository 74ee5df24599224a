package routing

import (
	"fmt"
	"sort"
)

// Entry is one routing-table row (Table IV / Table V): the next-hop
// landmark toward Dest with the minimal overall delay, plus the backup
// next hop with the second-lowest overall delay via a different neighbour
// (Section IV-E.3). Backup is -1 when no alternative neighbour reaches
// Dest.
type Entry struct {
	Dest        int
	Next        int
	Delay       float64
	Backup      int
	BackupDelay float64
}

// Table is the distance-vector routing table of one landmark. It stores
// the latest distance vector received from each neighbouring landmark
// together with the local link delays, and maintains best and backup
// routes from them — the fixpoint of the paper's per-entry merge of
// Section IV-C.2, extended with backup tracking.
//
// Maintenance is incremental: a mutation (a link-delay change from a
// bandwidth update, or a handful of changed entries in a merged vector)
// touches exactly one candidate (dest, neighbour) pair per changed input,
// and candidateIs folds that delta into the affected row in O(1). Each row
// is in one of three states:
//
//   - clean: best (next, delay) and backup (backup, bakDelay) are exact;
//   - stale: the best is exact, and (bakDelay, backup) is a lower bound,
//     in the beats order, on the best candidate via any other neighbour;
//   - dirty: the row awaits a single-row rescan before any read.
//
// A worsened backup, or a backup promoted over a worsened best, leaves the
// row stale rather than dirty: the old backup value still bounds the rest
// from below, so the best stays exact and every later delta keeps folding
// in O(1). The bulk folds call candidateIs only for rows the changed
// candidate can move (canMove: nbr is the best or the backup, or the
// candidate beats the backup), which is exact on clean and stale rows
// alike; on a 4× DART run that is 3–4% of the rows SetLinkDelay and
// storeVector visit. Only readers of the backup (Lookup, Entries, CheckFull)
// rescan stale rows; best-only readers (NextHop, Delay, ToVector, …)
// rescan dirty rows alone. A full recomputation never runs after
// construction; the historical recompute loop is retained solely as the
// reference for CheckFull, the equivalence cross-check the property tests
// and the validation layer run. Storage is dense (indexed by landmark)
// because large simulations hammer the merge path.
type Table struct {
	Owner int

	size      int
	linkDelay []float64   // per neighbour; Infinite = no link
	nbrs      []int       // sorted neighbours with finite link delay
	vectors   [][]float64 // per neighbour: advertised delay per dest (nil = none)
	vectorSeq []int       // per neighbour: seq of stored vector
	next      []int       // per dest; -1 = unreachable
	delay     []float64   // per dest
	backup    []int       // per dest; -1 = none
	bakDelay  []float64   // per dest
	reachable int

	// Incremental-maintenance state: per-row rowDirty/rowStale bits, and
	// the dirty rows in marking order, which await a single-row rescan.
	// Stale rows are not listed; a full resolve finds them by their bit.
	state     []uint8
	dirtyList []int
	// gen increases whenever the routed state (next/delay/backup) may have
	// changed; readers that cache derived views (the router's shared
	// advertisement copy) compare generations instead of whole vectors.
	// Read it after a refreshing accessor (Lookup, ToVector, …) so pending
	// rescans are folded in. A backup that goes stale bumps it only when
	// the row is resolved, so a cache of backup values must read it after
	// a full resolve (Entries).
	gen uint64
}

// Row-state bits.
const (
	rowDirty uint8 = 1 << iota // rescan before any read
	rowStale                   // backup is a lower bound; rescan before a backup read
)

// NewTable returns an empty table for landmark owner in a network of size
// landmarks.
func NewTable(owner, size int) *Table {
	t := &Table{
		Owner:     owner,
		size:      size,
		linkDelay: make([]float64, size),
		vectors:   make([][]float64, size),
		vectorSeq: make([]int, size),
		next:      make([]int, size),
		delay:     make([]float64, size),
		backup:    make([]int, size),
		bakDelay:  make([]float64, size),
		state:     make([]uint8, size),
	}
	for i := 0; i < size; i++ {
		t.linkDelay[i] = Infinite
		t.next[i] = -1
		t.delay[i] = Infinite
		t.backup[i] = -1
		t.bakDelay[i] = Infinite
	}
	return t
}

// Size returns the number of landmarks the table was sized for.
func (t *Table) Size() int { return t.size }

// Gen returns the table's route generation: it increases whenever the
// routed state may have changed, so derived views cached against it are
// rebuilt only on change. Call it after a refreshing accessor (ToVector,
// Lookup) — pending row rescans bump the generation when they apply.
func (t *Table) Gen() uint64 { return t.gen }

// beats reports whether candidate (c1 via neighbour i1) precedes (c2 via
// i2) in the deterministic route order: smaller delay first, ties to the
// smaller neighbour index. This is exactly the order the ascending-index
// recompute loop realises with its strict-less updates.
func beats(c1 float64, i1 int, c2 float64, i2 int) bool {
	return c1 < c2 || (c1 == c2 && i1 < i2)
}

// markDest queues row d for a single-row rescan at the next read.
func (t *Table) markDest(d int) {
	if t.state[d]&rowDirty == 0 {
		t.state[d] |= rowDirty
		t.dirtyList = append(t.dirtyList, d)
	}
}

// cand returns the overall delay of routing to d via nbr with the current
// link delays and stored vectors — the same expression the recompute loop
// evaluates, so delta updates and full rescans agree bit for bit.
func (t *Table) cand(d, nbr int) float64 {
	ld := t.linkDelay[nbr]
	if ld >= Infinite {
		return Infinite
	}
	c := Infinite
	if d == nbr {
		c = ld
	}
	if vec := t.vectors[nbr]; vec != nil && vec[d] < Infinite {
		if v := ld + vec[d]; v < c {
			c = v
		}
	}
	return c
}

// canMove reports whether folding the changed candidate c via nbr can
// change row d: only when nbr holds the best or the backup, or when c
// beats the backup. On a clean row the best precedes the backup, and on a
// stale row it never follows the bound, so a candidate that beats the best
// beats the backup too; every other candidate loses to both and candidateIs
// would leave the row as it is. A row without a backup has (Infinite, -1)
// there, which any finite c beats. The test must be beats, not <: a
// candidate equal to the backup's delay via a smaller index takes it.
func (t *Table) canMove(d, nbr int, c float64) bool {
	return t.next[d] == nbr || t.backup[d] == nbr || beats(c, nbr, t.bakDelay[d], t.backup[d])
}

// candidateIs folds the changed candidate c == cand(d, nbr) into row d —
// the bulk folds (SetLinkDelay, storeVector) hoist the link delay and
// vector loads out of their loops and evaluate the candidate inline.
// Callers must have excluded the owner row and dirty rows. On a clean row
// the invariant — next is the (delay, index)-minimum over all neighbours,
// backup the minimum among the rest — makes every change O(1): a worsened
// backup, or a backup promoted over a worsened best, only loses exactness
// of the backup, and the row goes stale with the old backup value as its
// bound.
func (t *Table) candidateIs(d, nbr int, c float64) {
	if t.state[d]&rowStale != 0 {
		t.staleCandidateIs(d, nbr, c)
		return
	}
	switch {
	case t.next[d] == nbr:
		switch {
		case c == t.delay[d]:
			// No numeric change.
		case beats(c, nbr, t.bakDelay[d], t.backup[d]):
			// Improved, or worsened but still ahead of the backup: the best
			// remains the minimum.
			t.delay[d] = c
			t.gen++
		case t.backup[d] >= 0:
			// The backup overtakes the worsened best. Every other candidate,
			// the old best's included, follows the old backup, so its value
			// bounds the new backup from below.
			t.next[d], t.delay[d] = t.backup[d], t.bakDelay[d]
			t.state[d] |= rowStale
			t.gen++
		default:
			// The only route became Infinite: no neighbour reaches d.
			t.next[d], t.delay[d] = -1, Infinite
			t.reachable--
			t.gen++
		}
	case t.backup[d] == nbr:
		switch {
		case beats(c, nbr, t.delay[d], t.next[d]):
			// The backup overtook the best; the old best is the minimum of
			// the remaining candidates, so it becomes the backup.
			t.next[d], t.delay[d], t.backup[d], t.bakDelay[d] = nbr, c, t.next[d], t.delay[d]
			t.gen++
		case c < t.bakDelay[d]:
			t.bakDelay[d] = c
			t.gen++
		case c == t.bakDelay[d]:
			// No numeric change.
		default:
			// The backup worsened; an untracked third candidate may beat it,
			// but none beats its old value, which becomes the bound.
			t.state[d] |= rowStale
		}
	default:
		// nbr was neither best nor backup, so its old candidate lost to the
		// backup; only an improvement can matter, and an improvement never
		// demands a rescan.
		if c >= Infinite {
			return
		}
		switch {
		case t.next[d] < 0:
			t.next[d], t.delay[d] = nbr, c
			t.reachable++
			t.gen++
		case beats(c, nbr, t.delay[d], t.next[d]):
			t.backup[d], t.bakDelay[d] = t.next[d], t.delay[d]
			t.next[d], t.delay[d] = nbr, c
			t.gen++
		case t.backup[d] < 0 || beats(c, nbr, t.bakDelay[d], t.backup[d]):
			t.backup[d], t.bakDelay[d] = nbr, c
			t.gen++
		}
	}
}

// staleCandidateIs is candidateIs for a stale row d, whose best is exact
// and whose (bakDelay, backup) bounds every other candidate from below.
// The bound never follows the best, and each fold below is exact: a
// candidate ahead of the bound is ahead of every other candidate, and a
// candidate behind it leaves the bound valid. Only a best worsened past
// the bound needs the row rescanned.
func (t *Table) staleCandidateIs(d, nbr int, c float64) {
	if t.next[d] == nbr {
		switch {
		case c == t.delay[d]:
			// No numeric change.
		case beats(c, nbr, t.bakDelay[d], t.backup[d]):
			t.delay[d] = c
			t.gen++
		default:
			t.markDest(d)
		}
		return
	}
	switch {
	case beats(c, nbr, t.delay[d], t.next[d]):
		// The new best; the old best preceded every other candidate, so it
		// is the exact backup.
		t.backup[d], t.bakDelay[d] = t.next[d], t.delay[d]
		t.next[d], t.delay[d] = nbr, c
		t.state[d] &^= rowStale
		t.gen++
	case beats(c, nbr, t.bakDelay[d], t.backup[d]):
		t.backup[d], t.bakDelay[d] = nbr, c
		t.state[d] &^= rowStale
		t.gen++
	}
}

// SetLinkDelay updates the local estimate of the delay to a neighbouring
// landmark (derived from the link's bandwidth). An Infinite delay removes
// the neighbour from consideration. Every row's candidate via nbr changes,
// so the update folds the delta into each row — O(size) with an O(1) body,
// against the O(size × neighbours) full recompute it replaces.
func (t *Table) SetLinkDelay(nbr int, delay float64) {
	if nbr == t.Owner || nbr < 0 || nbr >= t.size {
		return
	}
	old := t.linkDelay[nbr]
	if old == delay {
		return // no change, no work
	}
	had := old < Infinite
	t.linkDelay[nbr] = delay
	has := delay < Infinite
	if has && !had {
		t.nbrs = append(t.nbrs, nbr)
		sort.Ints(t.nbrs)
	} else if !has && had {
		for i, n := range t.nbrs {
			if n == nbr {
				t.nbrs = append(t.nbrs[:i], t.nbrs[i+1:]...)
				break
			}
		}
	}
	// The fold inlines cand(d, nbr) with the link delay and vector loads
	// hoisted: candidate = min(ld [d == nbr], ld + vec[d]). The candidate
	// is monotone in the link delay, so on a raise one that lost to a row's
	// backup (or bound) keeps losing: only rows holding nbr can change.
	raised := delay > old
	vec := t.vectors[nbr]
	for d := 0; d < t.size; d++ {
		if d == t.Owner || t.state[d]&rowDirty != 0 {
			continue
		}
		if raised && t.next[d] != nbr && t.backup[d] != nbr {
			continue
		}
		c := Infinite
		if delay < Infinite {
			if d == nbr {
				c = delay
			}
			if vec != nil && vec[d] < Infinite {
				if v := delay + vec[d]; v < c {
					c = v
				}
			}
		}
		if t.canMove(d, nbr, c) {
			t.candidateIs(d, nbr, c)
		}
	}
}

// LinkDelay returns the local link delay to nbr (Infinite when unknown).
func (t *Table) LinkDelay(nbr int) float64 {
	if nbr < 0 || nbr >= t.size {
		return Infinite
	}
	return t.linkDelay[nbr]
}

// Neighbors returns the landmarks with a finite local link delay as a
// fresh slice.
func (t *Table) Neighbors() []int { return append([]int(nil), t.nbrs...) }

// MergeVector installs the distance vector advertised by a neighbouring
// landmark — vec[d] is the neighbour's overall delay to d (Infinite =
// unreachable) — tagged with the sequence it was generated at. Vectors not
// newer than the stored one are discarded, as the paper prescribes. The
// slice is copied. It reports whether the vector was applied.
func (t *Table) MergeVector(nbr int, vec []float64, seq int) bool {
	if nbr == t.Owner || nbr < 0 || nbr >= t.size || len(vec) != t.size {
		return false
	}
	if t.vectors[nbr] != nil && seq <= t.vectorSeq[nbr] {
		return false
	}
	t.storeVector(nbr, vec, seq)
	return true
}

// MergeVectorForced installs a vector regardless of the stored sequence
// number and bumps the stored sequence past both the old and the supplied
// value. Loop correction (Section IV-E.2) uses it so the repeated
// re-advertisements of the involved landmarks override the stale state
// that formed the loop.
func (t *Table) MergeVectorForced(nbr int, vec []float64, seq int) bool {
	if nbr == t.Owner || nbr < 0 || nbr >= t.size || len(vec) != t.size {
		return false
	}
	if t.vectors[nbr] != nil && seq <= t.vectorSeq[nbr] {
		seq = t.vectorSeq[nbr] + 1
	}
	t.storeVector(nbr, vec, seq)
	return true
}

func (t *Table) storeVector(nbr int, vec []float64, seq int) {
	dst := t.vectors[nbr]
	if dst == nil {
		dst = make([]float64, t.size)
		for i := range dst {
			dst[i] = Infinite
		}
		t.vectors[nbr] = dst
	}
	// In steady state most arriving advertisements repeat the stored
	// vector; only the entries that actually moved are folded into their
	// rows, with the link delay hoisted out of the loop.
	ld := t.linkDelay[nbr]
	for i, v := range vec {
		if i == t.Owner {
			v = Infinite // never route to ourselves via a neighbour
		}
		if dst[i] != v {
			dst[i] = v
			if t.state[i]&rowDirty != 0 || i == t.Owner {
				continue
			}
			c := Infinite
			if ld < Infinite {
				if i == nbr {
					c = ld
				}
				if v < Infinite {
					if w := ld + v; w < c {
						c = w
					}
				}
			}
			if t.canMove(i, nbr, c) {
				t.candidateIs(i, nbr, c)
			}
		}
	}
	t.vectorSeq[nbr] = seq
}

// refresh applies the pending single-row rescans of dirty rows. Reads
// that return routed state call it first; stale rows keep their bound.
func (t *Table) refresh() {
	switch len(t.dirtyList) {
	case 0:
		return
	case 1:
		d := t.dirtyList[0]
		t.state[d] = 0
		t.recomputeDest(d)
	default:
		t.recomputeRows(t.dirtyList)
		for _, d := range t.dirtyList {
			t.state[d] = 0
		}
	}
	t.gen++
	t.dirtyList = t.dirtyList[:0]
}

// resolveAll queues every stale row for a rescan with the dirty ones and
// applies them all, leaving every row exact.
func (t *Table) resolveAll() {
	for d, s := range t.state {
		if s == rowStale {
			t.markDest(d)
		}
	}
	t.refresh()
}

// resolve rescans row d if its backup is stale, so a backup reader sees
// the exact value. Call it after refresh.
func (t *Table) resolve(d int) {
	if t.state[d]&rowStale != 0 {
		t.state[d] = 0
		t.recomputeDest(d)
		t.gen++
	}
}

// recomputeRows rebuilds the given rows in one column-wise sweep: the
// outer loop walks neighbours in ascending index order — the same fold
// order recomputeDest realises per row, so each row's result is
// bit-identical — with the link delay and vector loads hoisted, so a
// batch of dirty rows costs one pass over the neighbour set instead of
// one scan per row.
func (t *Table) recomputeRows(rows []int) {
	for _, d := range rows {
		if t.next[d] >= 0 {
			t.reachable--
		}
		t.next[d], t.delay[d] = -1, Infinite
		t.backup[d], t.bakDelay[d] = -1, Infinite
	}
	for _, nbr := range t.nbrs {
		ld := t.linkDelay[nbr]
		vec := t.vectors[nbr]
		for _, d := range rows {
			if d == t.Owner {
				continue
			}
			c := Infinite
			if d == nbr {
				c = ld
			}
			if vec != nil && vec[d] < Infinite {
				if v := ld + vec[d]; v < c {
					c = v
				}
			}
			if c >= Infinite {
				continue
			}
			switch {
			case c < t.delay[d]:
				if t.next[d] >= 0 {
					t.backup[d], t.bakDelay[d] = t.next[d], t.delay[d]
				}
				t.next[d], t.delay[d] = nbr, c
			case nbr != t.next[d] && c < t.bakDelay[d]:
				t.backup[d], t.bakDelay[d] = nbr, c
			}
		}
	}
	for _, d := range rows {
		if t.next[d] >= 0 {
			t.reachable++
		}
	}
}

// recomputeDest rebuilds row d from the stored link delays and vectors —
// the recompute inner loop restricted to one destination, so a rescanned
// row is bit-identical to a full recomputation's.
func (t *Table) recomputeDest(d int) {
	wasReachable := t.next[d] >= 0
	next, delay, backup, bakDelay := -1, Infinite, -1, Infinite
	if d != t.Owner {
		for _, nbr := range t.nbrs {
			c := t.cand(d, nbr)
			if c >= Infinite {
				continue
			}
			switch {
			case c < delay:
				if next >= 0 {
					backup, bakDelay = next, delay
				}
				next, delay = nbr, c
			case nbr != next && c < bakDelay:
				backup, bakDelay = nbr, c
			}
		}
	}
	t.next[d], t.delay[d], t.backup[d], t.bakDelay[d] = next, delay, backup, bakDelay
	if wasReachable != (next >= 0) {
		if next >= 0 {
			t.reachable++
		} else {
			t.reachable--
		}
	}
}

// recompute rebuilds every route from the stored link delays and vectors.
// It no longer runs on the maintenance path (candidateIs and the row
// rescans carry the deltas); it remains as CheckFull's reference
// implementation.
func (t *Table) recompute() {
	for d := 0; d < t.size; d++ {
		t.next[d] = -1
		t.delay[d] = Infinite
		t.backup[d] = -1
		t.bakDelay[d] = Infinite
	}
	t.reachable = 0
	for _, nbr := range t.nbrs {
		ld := t.linkDelay[nbr]
		vec := t.vectors[nbr]
		for d := 0; d < t.size; d++ {
			if d == t.Owner {
				continue
			}
			cand := Infinite
			if d == nbr {
				cand = ld
			}
			if vec != nil && vec[d] < Infinite {
				if v := ld + vec[d]; v < cand {
					cand = v
				}
			}
			if cand >= Infinite {
				continue
			}
			switch {
			case cand < t.delay[d]:
				if t.next[d] >= 0 && t.next[d] != nbr {
					t.backup[d], t.bakDelay[d] = t.next[d], t.delay[d]
				}
				if t.next[d] < 0 {
					t.reachable++
				}
				t.next[d], t.delay[d] = nbr, cand
			case nbr != t.next[d] && cand < t.bakDelay[d]:
				t.backup[d], t.bakDelay[d] = nbr, cand
			}
		}
	}
}

// CheckFull is the incremental-vs-full equivalence cross-check: it applies
// any pending rescans, rebuilds every route from scratch with the
// reference recompute, and reports the first divergence between the
// incrementally maintained state and the rebuilt one — for a stale row,
// a bound that follows the rebuilt backup. Afterwards every row holds the
// rebuilt, exact values (identical to the incremental ones on success);
// the property tests and the validation layer's Table hook call it after
// randomized mutation sequences.
func (t *Table) CheckFull() error {
	t.refresh()
	next := append([]int(nil), t.next...)
	delay := append([]float64(nil), t.delay...)
	backup := append([]int(nil), t.backup...)
	bakDelay := append([]float64(nil), t.bakDelay...)
	reachable := t.reachable
	t.recompute()
	var err error
	resolved := false
	for d := 0; d < t.size; d++ {
		stale := t.state[d] == rowStale
		t.state[d] = 0
		resolved = resolved || stale
		bakOK := backup[d] == t.backup[d] && bakDelay[d] == t.bakDelay[d]
		if stale {
			bakOK = !beats(t.bakDelay[d], t.backup[d], bakDelay[d], backup[d])
		}
		if err == nil && (next[d] != t.next[d] || delay[d] != t.delay[d] || !bakOK) {
			err = fmt.Errorf("routing: table %d dest %d diverged: incremental (next %d delay %g backup %d bakDelay %g stale %v) vs full (next %d delay %g backup %d bakDelay %g)",
				t.Owner, d, next[d], delay[d], backup[d], bakDelay[d], stale,
				t.next[d], t.delay[d], t.backup[d], t.bakDelay[d])
		}
	}
	if resolved {
		t.gen++
	}
	if err == nil && reachable != t.reachable {
		err = fmt.Errorf("routing: table %d reachable count diverged: incremental %d vs full %d",
			t.Owner, reachable, t.reachable)
	}
	return err
}

// Lookup returns the entry toward dest, resolving a stale backup. ok is
// false when dest is unknown. Callers that use only the best route should
// call NextHop.
func (t *Table) Lookup(dest int) (Entry, bool) {
	t.refresh()
	if dest < 0 || dest >= t.size || t.next[dest] < 0 {
		return Entry{Dest: dest, Next: -1, Delay: Infinite, Backup: -1, BackupDelay: Infinite}, false
	}
	t.resolve(dest)
	return Entry{
		Dest:        dest,
		Next:        t.next[dest],
		Delay:       t.delay[dest],
		Backup:      t.backup[dest],
		BackupDelay: t.bakDelay[dest],
	}, true
}

// NextHop returns the best next hop toward dest and its overall delay
// (-1 and Infinite when dest is unknown). Unlike Lookup it never rescans a
// row for its backup.
func (t *Table) NextHop(dest int) (int, float64) {
	t.refresh()
	if dest < 0 || dest >= t.size {
		return -1, Infinite
	}
	return t.next[dest], t.delay[dest]
}

// Delay returns the overall delay toward dest (Infinite when unknown).
func (t *Table) Delay(dest int) float64 {
	t.refresh()
	if dest < 0 || dest >= t.size {
		return Infinite
	}
	return t.delay[dest]
}

// Entries returns all reachable rows sorted by destination.
func (t *Table) Entries() []Entry {
	t.resolveAll()
	out := make([]Entry, 0, t.reachable)
	for d := 0; d < t.size; d++ {
		if e, ok := t.Lookup(d); ok {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of reachable destinations.
func (t *Table) Len() int { t.refresh(); return t.reachable }

// ToVector renders the table as the distance vector this landmark
// advertises: the overall delay per destination (Infinite = unreachable).
// The returned slice is shared scratch — callers must copy it to retain it
// (MergeVector copies).
func (t *Table) ToVector() []float64 {
	t.refresh()
	return t.delay
}

// AppendNextHops appends the per-destination next-hop array (-1 =
// unreachable) to dst and returns it. Landmarks compare successive copies
// in a reusable scratch buffer to decide whether the table materially
// changed and needs re-advertising — the maintenance-cost saving the paper
// derives from Fig. 8's stability result.
func (t *Table) AppendNextHops(dst []int) []int {
	t.refresh()
	return append(dst, t.next...)
}

// Coverage returns the fraction of the other total-1 landmarks this table
// can route to — Fig. 8's coverage metric S_r/S_total.
func (t *Table) Coverage(total int) float64 {
	t.refresh()
	if total <= 1 {
		return 1
	}
	return float64(t.reachable) / float64(total-1)
}

// NextHopChanges counts destinations whose next hop differs between prev
// and cur (destinations reachable in only one table count as changed) —
// the numerator of Fig. 8's stability metric.
func NextHopChanges(prev, cur *Table) int {
	prev.refresh()
	cur.refresh()
	n := prev.size
	if cur.size < n {
		n = cur.size
	}
	changed := 0
	for d := 0; d < n; d++ {
		if prev.next[d] != cur.next[d] {
			changed++
		}
	}
	return changed
}

// Snapshot returns a deep copy of the table (used for stability
// measurements and warm-state forking). It is a pure read: pending
// rescans and stale bounds are carried over via the row states rather
// than resolved here, so concurrent Snapshots of one frozen table are
// race-free.
func (t *Table) Snapshot() *Table {
	cp := NewTable(t.Owner, t.size)
	copy(cp.linkDelay, t.linkDelay)
	cp.nbrs = append([]int(nil), t.nbrs...)
	for n, vec := range t.vectors {
		if vec != nil {
			cp.vectors[n] = append([]float64(nil), vec...)
		}
	}
	copy(cp.vectorSeq, t.vectorSeq)
	copy(cp.next, t.next)
	copy(cp.delay, t.delay)
	copy(cp.backup, t.backup)
	copy(cp.bakDelay, t.bakDelay)
	cp.reachable = t.reachable
	copy(cp.state, t.state)
	cp.dirtyList = append([]int(nil), t.dirtyList...)
	cp.gen = t.gen
	return cp
}

// DetectLoop inspects the landmark path recorded in a packet and, when the
// last landmark already appears earlier in the path, returns the members of
// the loop (from the first occurrence to the end, excluding the repeat).
// This is the trigger of Section IV-E.2: a packet finding it has visited a
// landmark twice reports the loop and its involved landmarks.
func DetectLoop(path []int) (members []int, ok bool) {
	if len(path) < 2 {
		return nil, false
	}
	last := path[len(path)-1]
	for i := 0; i < len(path)-1; i++ {
		if path[i] == last {
			return append([]int(nil), path[i:len(path)-1]...), true
		}
	}
	return nil, false
}
