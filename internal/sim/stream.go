package sim

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// The engine draws visits from a trace.Source instead of holding one heap
// entry per visit, so peak memory is bounded by one time epoch of visits
// rather than the whole visit slice. New runs over a SliceSource view of a
// materialized trace; NewSharded runs over any stream, such as the scale
// tier's generators.
//
// Within an epoch [t, t+Epoch) the reader's arrivals (already in stream
// order) are merged with the departures that fall due, which wait in
// per-epoch buckets until then. The apply loop interleaves that batch with
// the time-unit, packet-generation and router-timer cursors by the total
// event order (time, kind, per-kind sequence). The per-kind sequences are
// the stream position for arrive/depart, the unit number, the packet index
// and the schedule order for timers, so the router observes one callback
// sequence whatever the epoch length or the source's chunking.
//
// Router callbacks stay sequential — the routing state is global by design
// (the paper's landmark tables couple all landmarks). The next epoch is
// built one ahead of the apply loop on a prefetch goroutine, which lives
// only as long as the Run or RunWarmup call that started it.
//
// A forked engine builds nothing: Snapshot drains the rest of the order
// once into a replay (fork.go), and every fork gathers its epochs from it
// synchronously — no reader, no departure buckets, no sort.

// ShardConfig tunes NewSharded. The zero value selects defaults.
type ShardConfig struct {
	// Epoch is the merge granularity; <= 0 means one day. Smaller epochs
	// lower peak memory, larger epochs amortize merge overhead. It never
	// changes results.
	Epoch trace.Time
}

// ShardStats reports what a run processed.
type ShardStats struct {
	Epochs int
	Visits int
	Events int
}

// NewSharded assembles an engine over a visit stream. open must return a
// fresh Source over the same stream on every call. The span determines
// the measurement boundary, the time-unit schedule and the packet
// schedule, which must match New over the materialized stream exactly: a
// trace.Spanner source reports it (the streaming generators and
// SliceSource), and only for any other source is a second instance
// drained once (ScanSpan) to learn it — today that means disrupted
// streams. The reader checks the claimed span against the stream it
// drains. The context trace is a header without visits.
func NewSharded(open func() trace.Source, r Router, w *Workload, cfg Config, sh ShardConfig) (*Engine, error) {
	src := open()
	var start, end trace.Time
	if sp, ok := src.(trace.Spanner); ok {
		start, end = sp.Span()
	} else {
		var err error
		start, end, err = trace.ScanSpan(open())
		if err != nil {
			return nil, fmt.Errorf("sim: span scan: %w", err)
		}
	}
	return newEngine(src.Info().Header(), src, r, w, cfg, sh.Epoch, start, end), nil
}

// Stats reports ingestion and apply counters; valid after Run returns.
func (e *Engine) Stats() ShardStats {
	return ShardStats{Epochs: e.epochs, Visits: e.visits, Events: e.events}
}

// departBuckets holds pending departures bucketed by the epoch their
// departure time falls in. Pops happen only at epoch boundaries, so a
// bucket needs no internal order until its epoch drains: a push is one
// O(1) append and a drain sorts the due range once.
type departBuckets struct {
	start trace.Time
	epoch trace.Time
	base  int       // epoch index of bkt[0]
	bkt   [][]event // pending departures, one bucket per epoch
}

func (q *departBuckets) push(ev event) {
	idx := int((ev.t-q.start)/q.epoch) - q.base
	for idx >= len(q.bkt) {
		q.bkt = append(q.bkt, nil)
	}
	q.bkt[idx] = append(q.bkt[idx], ev)
}

// popDue appends every pending departure before bound to due in the total
// event order (bound aligns with an epoch boundary, or maxTime to drain).
func (q *departBuckets) popDue(bound trace.Time, due []event) []event {
	k := len(q.bkt)
	if bound != maxTime {
		if k2 := int((bound-q.start)/q.epoch) - q.base; k2 < k {
			k = k2
		}
		if k < 0 {
			k = 0
		}
	}
	pre := len(due)
	for i := 0; i < k; i++ {
		due = append(due, q.bkt[i]...)
		q.bkt[i] = q.bkt[i][:0]
	}
	if k > 0 {
		// Rotate the drained buckets to the tail for reuse.
		q.bkt = append(q.bkt[k:], q.bkt[:k]...)
		q.base += k
	}
	// Departures share one event kind, so (t, seq) is the total order; seq
	// is unique, making the sort's realised order unambiguous.
	slices.SortFunc(due[pre:], func(a, b event) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return a.seq - b.seq
	})
	return due
}

// visitReader adapts a Source's chunked stream to a peek/pop cursor,
// enforcing the (Start, Node, Landmark) stream order and index bounds as
// it goes — a malformed trace or generator fails loudly here instead of
// corrupting the merge. count is the number of visits popped: the stream
// position, and the sequence base of their events. Once the stream is
// drained, the span it covered (first start, largest end) must be the
// span the engine was built with, which a Spanner claims unchecked.
type visitReader struct {
	src        trace.Source
	nodes      int
	lms        int
	start, end trace.Time // the engine's span
	chunk      []trace.Visit
	i          int
	count      int
	prev       trace.Visit
	first      trace.Time // start of visit 0
	maxEnd     trace.Time // largest end popped
	done       bool
}

func (r *visitReader) peek() (trace.Visit, bool) {
	for r.i >= len(r.chunk) {
		if r.done {
			return trace.Visit{}, false
		}
		c, ok := r.src.Next()
		if !ok {
			r.done = true
			if r.first != r.start || r.maxEnd != r.end {
				panic(fmt.Sprintf("sim: source: %d visits span (%d, %d), engine built for (%d, %d)",
					r.count, r.first, r.maxEnd, r.start, r.end))
			}
			return trace.Visit{}, false
		}
		r.chunk, r.i = c, 0
	}
	return r.chunk[r.i], true
}

func (r *visitReader) pop() trace.Visit {
	v := r.chunk[r.i]
	r.i++
	if v.Node < 0 || v.Node >= r.nodes || v.Landmark < 0 || v.Landmark >= r.lms || v.End < v.Start {
		panic(fmt.Sprintf("sim: source: invalid visit %d: %+v", r.count, v))
	}
	if r.count > 0 && trace.VisitBefore(v, r.prev) {
		panic(fmt.Sprintf("sim: source: visit %d (n%d l%d @%d) out of order after (n%d l%d @%d)",
			r.count, v.Node, v.Landmark, v.Start, r.prev.Node, r.prev.Landmark, r.prev.Start))
	}
	if r.count == 0 {
		r.first = v.Start
	}
	r.maxEnd = max(r.maxEnd, v.End)
	r.prev = v
	r.count++
	return v
}

// epochBatch is one built epoch: its arrivals and due departures in the
// total event order, the index of the first one not yet applied, and the
// bound below which the apply loop may interleave cursor events (the
// epoch end, or maxTime once the source is drained).
type epochBatch struct {
	events []event
	next   int
	bound  trace.Time
}

// buildEpoch ingests every visit starting before the next epoch end and
// merges the arrivals with the departures due in that epoch. Once the
// source is exhausted the batch also takes every still-pending departure
// and is unbounded.
func (e *Engine) buildEpoch() epochBatch {
	for {
		v, ok := e.rd.peek()
		if !ok {
			e.drained = true
			break
		}
		if v.Start >= e.epEnd {
			break
		}
		i := e.rd.count
		e.rd.pop()
		e.arrives = append(e.arrives, event{t: v.Start, kind: evArrive, seq: 2 * i, visit: v})
		e.departs.push(event{t: v.End, kind: evDepart, seq: 2*i + 1, visit: v})
	}
	bound := e.epEnd
	if e.drained {
		bound = maxTime
	}
	e.due = e.departs.popDue(bound, e.due[:0])
	evs := e.bufs[e.nextBuf][:0]
	ai, di := 0, 0
	for ai < len(e.arrives) && di < len(e.due) {
		if e.arrives[ai].before(&e.due[di]) {
			evs = append(evs, e.arrives[ai])
			ai++
		} else {
			evs = append(evs, e.due[di])
			di++
		}
	}
	evs = append(evs, e.arrives[ai:]...)
	evs = append(evs, e.due[di:]...)
	e.arrives = e.arrives[:0]
	// The apply loop reads this buffer while the next epoch is built into
	// the other one.
	e.bufs[e.nextBuf] = evs[:0]
	e.nextBuf ^= 1
	e.epEnd += e.departs.epoch
	e.epochs++
	e.visits = e.rd.count
	return epochBatch{events: evs, bound: bound}
}

// prepped is one prefetched epoch, or the panic value of a failed build
// forwarded to the apply goroutine.
type prepped struct {
	batch epochBatch
	abort any
}

// prefetch builds epochs one ahead of the apply loop until it has sent the
// one whose bound reaches until. The unbuffered hand-off means a buffer is
// rebuilt only after the loop has finished applying the batch it held;
// stop ends the goroutine early when the apply loop unwinds.
func (e *Engine) prefetch(until trace.Time, out chan<- prepped, stop, done chan struct{}) {
	defer close(done)
	defer func() {
		// Surface malformed-source panics on the caller's goroutine instead
		// of crashing the process from inside the pipeline.
		if p := recover(); p != nil {
			select {
			case out <- prepped{abort: p}:
			case <-stop:
			}
		}
	}()
	for {
		b := e.buildEpoch()
		select {
		case out <- prepped{batch: b}:
		case <-stop:
			return
		}
		if b.bound >= until {
			return
		}
	}
}

// runUntil applies every event before until. It finishes the epoch a
// previous call left part-applied, then takes further epochs from the
// replay on a forked engine, or else from a prefetch goroutine that has
// exited by the time runUntil returns; the unapplied rest of the last
// epoch stays in e.batch for the next call.
func (e *Engine) runUntil(until trace.Time) {
	if !e.started {
		e.started = true
		e.router.Init(e.ctx)
	}
	var built chan prepped
	for {
		e.applyBatch(until)
		if e.batch.bound >= until {
			return
		}
		if e.replay != nil {
			e.batch = e.gather()
			e.epochs++
			continue
		}
		if built == nil {
			built = make(chan prepped)
			stop, done := make(chan struct{}), make(chan struct{})
			defer func() {
				close(stop)
				<-done
			}()
			go e.prefetch(until, built, stop, done)
		}
		p := <-built
		if p.abort != nil {
			panic(p.abort)
		}
		e.batch = p.batch
	}
}

// applyBatch applies events in the total event order — the current
// epoch's visit events merged with the unit, generation and timer
// cursors — until the next one is at or past the batch bound or until. It
// is the only place the simulation clock advances.
func (e *Engine) applyBatch(until trace.Time) {
	b := &e.batch
	limit := min(b.bound, until)
	unit := e.ctx.Cfg.Unit
	for {
		var best event
		from := 0 // 0 none, 1 batch, 2 unit, 3 generate, 4 timer
		if b.next < len(b.events) {
			best, from = b.events[b.next], 1
		}
		if unit > 0 && e.unitT <= e.end {
			ue := event{t: e.unitT, kind: evUnit, seq: e.unitN, unit: e.unitN}
			if from == 0 || ue.before(&best) {
				best, from = ue, 2
			}
		}
		if e.gi < len(e.pkts) {
			p := e.pkts[e.gi]
			ge := event{t: p.Created, kind: evGenerate, seq: e.gi, pkt: p}
			if from == 0 || ge.before(&best) {
				best, from = ge, 3
			}
		}
		if e.timers.Len() > 0 && (from == 0 || e.timers.ev[0].before(&best)) {
			best, from = e.timers.ev[0], 4
		}
		if from == 0 || best.t >= limit {
			return
		}
		switch from {
		case 1:
			b.next++
		case 2:
			e.unitN++
			e.unitT += unit
		case 3:
			e.gi++
		case 4:
			e.timers.pop()
		}
		e.now = best.t
		e.apply(best)
		e.events++
	}
}
