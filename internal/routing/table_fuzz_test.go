package routing

import (
	"slices"
	"testing"
)

// fuzzValues is the delay grid the fuzz input draws from: few distinct
// values, so sums tie often and the (delay, index) tie-break is hit, plus
// Infinite for lost links and unreachable entries.
var fuzzValues = [8]float64{0, 1, 1, 2, 2, 3, 4, Infinite}

// fuzzOps reads a fuzz input one byte at a time; a read past the end
// yields 0xff (an Infinite value).
type fuzzOps []byte

func (o *fuzzOps) take() byte {
	if len(*o) == 0 {
		return 0xff
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}

func (o *fuzzOps) value() float64 { return fuzzValues[o.take()&7] }

func (o *fuzzOps) vector(size int) []float64 {
	vec := make([]float64, size)
	for i := range vec {
		vec[i] = o.value()
	}
	return vec
}

// FuzzTableOps decodes its input into a table of 3-16 landmarks and a
// sequence of link-delay changes, vector merges (fresh, stale and forced)
// and reads, and checks a Snapshot against the reference recompute
// (CheckFull) after every step. Checking a copy keeps the table's own
// stale rows stale, so later steps fold into them; every read is compared
// with the checked copy's exact values.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 0x08, 1, 0x10, 2, 0x0a, 1, 0, 1, 2, 3, 4, 5, 6, 7, 0x05, 0x26})
	f.Add([]byte{5, 2, 0x08, 1, 0x10, 1, 0x18, 1, 0x0a, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		0x12, 1, 2, 2, 2, 2, 2, 2, 2, 2, 0x1a, 1, 3, 3, 3, 3, 3, 3, 3, 3, 0x0f, 0x04, 0x3c})
	f.Add([]byte{13, 7, 0x00, 2, 0x2b, 0, 7, 6, 5, 4, 3, 2, 1, 0, 0x30, 0x07, 0x4e})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzOps(data)
		size := 3 + int(ops.take())%14
		tb := NewTable(int(ops.take())%size, size)
		seq := 0
		for step := 0; len(ops) > 0 && step < 256; step++ {
			op := ops.take()
			nbr := int(op>>3) % size
			switch op & 7 {
			case 0, 1:
				tb.SetLinkDelay(nbr, ops.value())
			case 2:
				s := seq + 1
				if b := ops.take(); b&1 == 0 {
					s = int(b>>1) % (seq + 1) // possibly stale
				}
				seq = max(seq, s)
				tb.MergeVector(nbr, ops.vector(size), s)
			case 3:
				tb.MergeVectorForced(nbr, ops.vector(size), int(ops.take())%(seq+1))
			}
			ref := tb.Snapshot()
			if err := ref.CheckFull(); err != nil {
				t.Fatalf("step %d (op %#x): %v", step, op, err)
			}
			switch op & 7 {
			case 4:
				if next, delay := tb.NextHop(nbr); next != ref.next[nbr] || delay != ref.delay[nbr] {
					t.Fatalf("step %d dest %d: NextHop (%d, %g), want (%d, %g)", step, nbr, next, delay, ref.next[nbr], ref.delay[nbr])
				}
			case 5:
				got, gotOK := tb.Lookup(nbr)
				want, wantOK := ref.Lookup(nbr)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d dest %d: Lookup %+v (%v), want %+v (%v)", step, nbr, got, gotOK, want, wantOK)
				}
			case 6:
				if got, want := tb.Entries(), ref.Entries(); !slices.Equal(got, want) {
					t.Fatalf("step %d: Entries %+v, want %+v", step, got, want)
				}
			case 7:
				if got := tb.Delay(nbr); got != ref.delay[nbr] {
					t.Fatalf("step %d dest %d: Delay %g, want %g", step, nbr, got, ref.delay[nbr])
				}
			}
		}
	})
}
