package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Sharded is the scale-tier simulation path: it runs the same discrete
// events as Engine, but draws them from a streaming trace.Source instead
// of a materialized trace, so peak memory is bounded by one time epoch of
// visits rather than the whole visit slice.
//
// Architecture. Ingestion partitions visit events per landmark across a
// bounded pool of shards (landmark % workers); within an epoch
// [t, t+Epoch) each shard assembles its landmarks' arrival run and drains
// its due departures from private per-epoch buckets, in parallel. A
// deterministic k-way merge then interleaves the shard runs — and, in the
// apply loop, the time-unit, packet-generation and router-timer cursors —
// by the engine's total event order (time, kind, per-kind sequence). The
// per-kind sequences reproduce the classic heap's insertion order (visit
// stream position for arrive/depart, unit number, packet index, schedule
// order for timers), so the router observes the exact callback sequence a
// classic Engine over the materialized trace would deliver: summaries are
// bit-identical to New(Materialize(src), …).Run() for every worker count.
//
// Router callbacks themselves stay sequential — the routing state is
// global by design (the paper's landmark tables couple all landmarks), and
// the bit-identical contract (the same one the warm-state fork layer
// established) rules out racing them. Parallelism lives in the stages
// around the apply loop: streaming generation (synth.StreamConfig.Workers),
// per-shard epoch assembly, and the one-epoch-ahead prefetch pipeline.
//
// A Sharded engine does not support warm-state forking; use the classic
// Engine (fork.go) for seed sweeps at paper scale, and Sharded for the
// 10–100× populations where materializing is the bottleneck.
type Sharded struct {
	e     *Engine
	rd    visitReader
	epoch trace.Time

	pkts  []*Packet // scheduled workload, consumed by the generate cursor
	gi    int
	unit  trace.Time // cfg.Unit (0 disables the cursor)
	unitN int
	unitT trace.Time

	shards []shard
	cur    []int      // k-way merge cursors, one per shard
	bufs   [2][]event // double-buffered epoch batches (prefetch pipeline)

	stats ShardStats
}

// ShardConfig tunes the sharded engine. The zero value selects defaults.
type ShardConfig struct {
	// Workers is the shard count and the bound on epoch-assembly
	// goroutines; <= 0 means GOMAXPROCS at the time of the call. The
	// worker count never changes results, only wall-clock time.
	Workers int
	// Epoch is the merge granularity; <= 0 means one day. Smaller epochs
	// lower peak memory, larger epochs amortize merge overhead.
	Epoch trace.Time
}

// ShardStats reports what a sharded run processed.
type ShardStats struct {
	Workers int
	Epochs  int
	Visits  int
	Events  int
}

// shard owns the visit events of the landmarks assigned to it. arrives is
// already sorted (the stream order restricted to a subset preserves the
// total order); departs wait in per-epoch buckets until their epoch.
type shard struct {
	arrives []event
	departs departBuckets
	due     []event
	run     []event
}

// departBuckets holds pending departures bucketed by the epoch their
// departure time falls in. Pops happen only at epoch boundaries, so a
// bucket needs no internal order until its epoch drains: a push is one
// O(1) append and a drain sorts the due range once — replacing a per-shard
// binary heap whose O(log n) 88-byte sift copies dominated epoch assembly
// at scale (the heap held one entry per concurrently-present node).
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
	// Departures share one event kind, so (t, seq) is the heap's total pop
	// order; seq is unique, making the sort's realised order unambiguous.
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

// buildRun assembles the shard's sorted event run for the epoch bounded by
// popBound: due departures popped in order, merged with the arrivals.
func (sh *shard) buildRun(popBound trace.Time) {
	sh.due = sh.departs.popDue(popBound, sh.due[:0])
	sh.run = sh.run[:0]
	ai, di := 0, 0
	for ai < len(sh.arrives) && di < len(sh.due) {
		if sh.arrives[ai].before(&sh.due[di]) {
			sh.run = append(sh.run, sh.arrives[ai])
			ai++
		} else {
			sh.run = append(sh.run, sh.due[di])
			di++
		}
	}
	sh.run = append(sh.run, sh.arrives[ai:]...)
	sh.run = append(sh.run, sh.due[di:]...)
	sh.arrives = sh.arrives[:0]
}

// visitReader adapts a Source's chunked stream to a peek/pop cursor,
// enforcing the (Start, Node, Landmark) stream order and index bounds as
// it goes — a malformed generator fails loudly here instead of corrupting
// the merge.
type visitReader struct {
	src   trace.Source
	nodes int
	lms   int
	chunk []trace.Visit
	i     int
	count int
	prev  trace.Visit
	done  bool
}

func (r *visitReader) peek() (trace.Visit, bool) {
	for r.i >= len(r.chunk) {
		if r.done {
			return trace.Visit{}, false
		}
		c, ok := r.src.Next()
		if !ok {
			r.done = true
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
		panic(fmt.Sprintf("sim: sharded source: invalid visit %d: %+v", r.count, v))
	}
	if r.count > 0 && trace.VisitBefore(v, r.prev) {
		panic(fmt.Sprintf("sim: sharded source: visit %d (n%d l%d @%d) out of order after (n%d l%d @%d)",
			r.count, v.Node, v.Landmark, v.Start, r.prev.Node, r.prev.Landmark, r.prev.Start))
	}
	r.prev = v
	r.count++
	return v
}

// NewSharded assembles a sharded engine. open must return a fresh Source
// over the same stream on every call; when the first instance does not
// implement trace.Spanner, a second instance is drained once (ScanSpan) to
// learn the span — the span determines the measurement boundary and the
// time-unit schedule, which must match the classic engine's exactly.
func NewSharded(open func() trace.Source, r Router, w *Workload, cfg Config, sh ShardConfig) (*Sharded, error) {
	src := open()
	info := src.Info()
	var start, end trace.Time
	if sp, ok := src.(trace.Spanner); ok {
		start, end = sp.Span()
	} else {
		var err error
		start, end, err = trace.ScanSpan(open())
		if err != nil {
			return nil, fmt.Errorf("sim: sharded span scan: %w", err)
		}
	}

	workers := sh.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	epoch := sh.Epoch
	if epoch <= 0 {
		epoch = trace.Day
	}

	e := newEngineCore(info.Header(), r, w, cfg, start, end)
	s := &Sharded{
		e:      e,
		rd:     visitReader{src: src, nodes: info.NumNodes, lms: info.NumLandmarks},
		epoch:  epoch,
		unit:   cfg.Unit,
		unitT:  start + cfg.Unit,
		shards: make([]shard, workers),
		cur:    make([]int, workers),
	}
	for i := range s.shards {
		s.shards[i].departs = departBuckets{start: start, epoch: epoch}
	}
	s.stats.Workers = workers
	if w != nil {
		// Identical call to the classic constructor's: ctx.Rand is fresh
		// and consumed only here, so the packet schedule is bit-identical.
		s.pkts = w.Schedule(e.ctx.Rand, e.measureFrom, end, info.NumLandmarks)
	}
	return s, nil
}

// Context exposes the engine context (router setup, result inspection).
func (s *Sharded) Context() *Context { return s.e.Context() }

// Stats reports ingestion and apply counters; valid after Run returns.
func (s *Sharded) Stats() ShardStats { return s.stats }

// epochBatch is one prefetched epoch: its merged visit events and the
// apply-loop bound (epoch end, or past-everything for the final flush).
type epochBatch struct {
	events []event
	bound  trace.Time
}

// buildEpoch ingests every visit starting before epEnd, fans the events
// across the shards, assembles the shard runs in parallel and k-way-merges
// them into buf. last reports that the source is exhausted — the caller
// then drains with an unbounded apply pass (the final batch includes every
// still-pending departure).
func (s *Sharded) buildEpoch(epEnd trace.Time, buf []event) (batch []event, last bool) {
	nsh := len(s.shards)
	for {
		v, ok := s.rd.peek()
		if !ok {
			last = true
			break
		}
		if v.Start >= epEnd {
			break
		}
		s.rd.pop()
		i := s.stats.Visits
		s.stats.Visits++
		sh := &s.shards[v.Landmark%nsh]
		sh.arrives = append(sh.arrives, event{t: v.Start, kind: evArrive, seq: 2 * i, visit: v})
		sh.departs.push(event{t: v.End, kind: evDepart, seq: 2*i + 1, visit: v})
	}

	popBound := epEnd
	if last {
		popBound = maxTime
	}
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.buildRun(popBound)
		}(&s.shards[i])
	}
	wg.Wait()

	// K-way merge of the shard runs by the total event order. The shard
	// count is small and bounded, so a linear scan per pop is cheap. One
	// shard needs no merge at all — its run is the batch (copied, since
	// the run buffer is reused while the batch is still being applied).
	batch = buf[:0]
	if nsh == 1 {
		return append(batch, s.shards[0].run...), last
	}
	for i := range s.cur {
		s.cur[i] = 0
	}
	for {
		best := -1
		for si := range s.shards {
			if s.cur[si] >= len(s.shards[si].run) {
				continue
			}
			if best < 0 || s.shards[si].run[s.cur[si]].before(&s.shards[best].run[s.cur[best]]) {
				best = si
			}
		}
		if best < 0 {
			break
		}
		batch = append(batch, s.shards[best].run[s.cur[best]])
		s.cur[best]++
	}
	return batch, last
}

// applyEpoch runs the apply loop up to the batch bound, interleaving the
// merged visit events with the unit, generation and timer cursors by the
// total event order.
func (s *Sharded) applyEpoch(b epochBatch) {
	e := s.e
	bi := 0
	for {
		var best event
		from := 0 // 0 none, 1 batch, 2 unit, 3 generate, 4 timer
		if bi < len(b.events) {
			best, from = b.events[bi], 1
		}
		if s.unit > 0 && s.unitT <= e.end {
			ue := event{t: s.unitT, kind: evUnit, seq: s.unitN, unit: s.unitN}
			if from == 0 || ue.before(&best) {
				best, from = ue, 2
			}
		}
		if s.gi < len(s.pkts) {
			p := s.pkts[s.gi]
			ge := event{t: p.Created, kind: evGenerate, seq: s.gi, pkt: p}
			if from == 0 || ge.before(&best) {
				best, from = ge, 3
			}
		}
		if e.events.Len() > 0 && (from == 0 || e.events.ev[0].before(&best)) {
			best, from = e.events.ev[0], 4
		}
		if from == 0 || best.t >= b.bound {
			return
		}
		switch from {
		case 1:
			bi++
		case 2:
			s.unitN++
			s.unitT += s.unit
		case 3:
			s.gi++
		case 4:
			e.events.pop()
		}
		e.now = best.t
		e.apply(best)
		s.stats.Events++
	}
}

// Run executes the simulation and returns the result, bit-identical to a
// classic Engine over the materialized stream. Epoch batches are prepared
// one ahead of the apply loop (double-buffered, so the prep goroutine
// never writes a batch the apply loop still reads).
func (s *Sharded) Run() *Result {
	e := s.e
	if !e.started {
		e.started = true
		e.router.Init(e.ctx)
	}

	type prepped struct {
		batch epochBatch
		last  bool
		abort any // panic value forwarded from the prep goroutine
	}
	batches := make(chan prepped) // unbuffered: hand-off synchronizes buffer reuse
	go func() {
		defer close(batches)
		defer func() {
			// Surface malformed-source panics on the caller's goroutine
			// instead of crashing the process from inside the pipeline.
			if p := recover(); p != nil {
				batches <- prepped{abort: p}
			}
		}()
		epEnd := e.start + s.epoch
		for buf := 0; ; buf ^= 1 {
			evs, last := s.buildEpoch(epEnd, s.bufs[buf])
			s.bufs[buf] = evs[:0]
			bound := epEnd
			if last {
				bound = maxTime
			}
			s.stats.Epochs++
			batches <- prepped{batch: epochBatch{events: evs, bound: bound}, last: last}
			if last {
				return
			}
			epEnd += s.epoch
		}
	}()
	for p := range batches {
		if p.abort != nil {
			panic(p.abort)
		}
		s.applyEpoch(p.batch)
	}
	return e.finish()
}
