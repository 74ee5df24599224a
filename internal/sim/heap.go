package sim

import "repro/internal/trace"

// Events are values: a visit, time-unit, generation or timer event is one
// fixed-size struct, compared by before. Visit events travel in per-epoch
// batches and the unit and generation events are synthesised from cursors
// (stream.go), so the heap below holds only router timers — events a
// callback schedules at an arbitrary future time. It is a typed binary heap
// over one growable backing array: no per-event allocation, no interface
// call per sift step, and pushes reuse the slots pops free.

// event kinds, in tie-break order at equal timestamps.
const (
	evUnit = iota
	evDepart
	evGenerate
	evArrive
	evTimer
)

type event struct {
	t    trace.Time
	kind int
	seq  int // per-kind sequence for total ordering
	// payload
	visit trace.Visit
	pkt   *Packet
	unit  int
	fn    func()
}

// before is the total event order: time, then kind, then the per-kind
// sequence (stream position for visit events, unit number, packet index,
// schedule order for timers). seq is unique within a kind, so the order
// has no ties and the pop sequence is deterministic regardless of the
// heap's internal layout.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventHeap is a value-typed binary min-heap of events.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) Len() int { return len(h.ev) }

// push inserts e, restoring the heap property by sifting up.
func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ev[i].before(&h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. It must not be called on an
// empty heap.
func (h *eventHeap) pop() event {
	n := len(h.ev) - 1
	top := h.ev[0]
	h.ev[0] = h.ev[n]
	h.ev[n] = event{} // release pkt/fn references
	h.ev = h.ev[:n]
	// Sift down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h.ev[r].before(&h.ev[l]) {
			least = r
		}
		if !h.ev[least].before(&h.ev[i]) {
			break
		}
		h.ev[i], h.ev[least] = h.ev[least], h.ev[i]
		i = least
	}
	return top
}
