package sim

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Warm-state forking: the control state a router accumulates before the
// measurement start — Markov models, bandwidth tables, distance-vector
// tables — depends only on the trace and the method, never on the workload
// seed (packets are generated from the warmup boundary onward and the
// seeded RNG is consumed exclusively by Workload.Schedule). A sweep over S
// seeds therefore re-simulates S identical warmups. Snapshot captures an
// engine at the end of warmup and Fork clones seeded measured runs from
// it, so the warmup is paid once per (scenario, method, config) cell while
// every forked run remains bit-identical to a fresh full run.

// Cloner is implemented by routers that support warm-state forking: a
// deep copy of all router state bound to a new simulation context.
//
// Contract: CloneRouter must not mutate the receiver in any way — forks of
// one snapshot are taken concurrently from the same frozen router, so the
// clone must be built from reads alone (no lazy refreshes, no scratch
// reuse). The clone must behave identically to the receiver on every
// future input; caches may be carried over or invalidated only when
// recomputation is deterministic.
type Cloner interface {
	Router
	CloneRouter(ctx *Context) Router
}

// Snapshot is a frozen engine at the end of warmup. It retains the
// engine's router, nodes, stations, metrics and telemetry recorder, its
// cursors, and the rest of its visit-event order as a replay: built once
// by Snapshot and read-only afterwards. Fork deep-clones the mutable parts
// per seeded run, so one snapshot serves any number of concurrent forks.
// The snapshotted engine must not be run further.
type Snapshot struct {
	trace       *trace.Trace
	cfg         Config
	router      Cloner
	nodes       []*Node
	stations    []*Station
	present     [][]int // presence sets by node ID (rebound to clones)
	start, end  trace.Time
	measureFrom trace.Time
	replay      *replay
	cur         cursors
	metrics     *metrics.Collector
}

// replay is a visit-event order from the warmup boundary to the end of the
// trace, epoch by epoch, as a fresh engine applies it. It holds no events
// and no pointers apart from the trace's visit slice, whose index is the
// stream position (an event's seq is 2i for visit i's arrival and 2i+1 for
// its departure):
//   - arrivals are implicit: epoch k's are visits [epochs[k-1].arrEnd,
//     epochs[k].arrEnd) in stream order, from arr0 for epoch 0;
//   - departures are visit indices in the total event order: epoch k's
//     are departs[epochs[k-1].depEnd:epochs[k].depEnd], from 0 for
//     epoch 0.
//
// Epoch 0 is the unapplied rest of the epoch the warmup ended in.
type replay struct {
	visits   []trace.Visit
	arr0     int32
	departs  []int32
	epochs   []replayEpoch
	maxBatch int // events in the largest epoch: a fork's buffer size
}

type replayEpoch struct {
	arrEnd, depEnd int32
	bound          trace.Time // the batch bound a fresh engine built
}

// Snapshot captures the engine's complete state for forking. It fails
// when the router does not implement Cloner, when warmup has not been run,
// when the engine streams from a source other than a materialized trace
// (only a trace.SliceSource's visits can be replayed), or when the warm
// state is not safely clonable: pending timer events carry closures over
// the original engine's state, and packets are mutable shared objects —
// neither may cross a fork. Both conditions are impossible in the default
// configurations (timers come from the dead-end extension, packets only
// exist from the warmup boundary onward); callers hitting them should
// fall back to fresh runs.
func (e *Engine) Snapshot() (*Snapshot, error) {
	cl, ok := e.router.(Cloner)
	if !ok {
		return nil, fmt.Errorf("sim: router %T does not implement Cloner", e.router)
	}
	if !e.started {
		return nil, fmt.Errorf("sim: Snapshot before RunWarmup")
	}
	src, ok := e.rd.src.(*trace.SliceSource)
	if !ok {
		return nil, fmt.Errorf("sim: engine over a non-slice stream (%T) cannot be forked", e.rd.src)
	}
	if len(src.Visits()) > math.MaxInt32 {
		return nil, fmt.Errorf("sim: %d visits overflow the replay's int32 positions", len(src.Visits()))
	}
	if e.ctx.Check != nil {
		// A checker accumulates per-run lifecycle state on one goroutine;
		// forks sharing it would race and double-count.
		return nil, fmt.Errorf("sim: engine with an invariant checker cannot be forked")
	}
	if e.timers.Len() > 0 {
		return nil, fmt.Errorf("sim: pending timer event at t=%d cannot be forked", e.timers.ev[0].t)
	}
	if e.gi < len(e.pkts) {
		return nil, fmt.Errorf("sim: pending packet generation at t=%d cannot be forked", e.pkts[e.gi].Created)
	}
	for _, n := range e.ctx.Nodes {
		if n.Buffer.Len() > 0 {
			return nil, fmt.Errorf("sim: node %d holds packets at snapshot time", n.ID)
		}
	}
	for _, st := range e.ctx.Stations {
		if st.Buffer.Len() > 0 {
			return nil, fmt.Errorf("sim: station %d holds packets at snapshot time", st.ID)
		}
	}
	s := &Snapshot{
		trace:       e.ctx.Trace,
		cfg:         e.ctx.Cfg,
		router:      cl,
		nodes:       e.ctx.Nodes,
		stations:    e.ctx.Stations,
		present:     make([][]int, len(e.present)),
		start:       e.start,
		end:         e.end,
		measureFrom: e.measureFrom,
		cur:         e.cursors,
		metrics:     e.ctx.Metrics.Clone(),
	}
	for lm, set := range e.present {
		if len(set) == 0 {
			continue
		}
		ids := make([]int, len(set))
		for i, n := range set {
			ids[i] = n.ID
		}
		s.present[lm] = ids
	}
	s.replay = e.drainReplay(src.Visits())
	return s, nil
}

// drainReplay builds the engine's remaining epochs synchronously, from
// where RunWarmup stopped until the source drains, and records their order
// as a replay over visits. The prefetch goroutine has exited, so the
// reader and the departures are this goroutine's alone. The engine's event
// buffers are released afterwards: a router that keeps its Context keeps
// the engine reachable for as long as the snapshot lives.
func (e *Engine) drainReplay(visits []trace.Visit) *replay {
	rest := e.batch.events[e.batch.next:]
	// Every visit not yet departed departs in the replay: the ones still
	// unread, the ones pending in buckets and the rest of the built epoch.
	n := len(visits) - e.rd.count
	for _, b := range e.departs.bkt {
		n += len(b)
	}
	rp := &replay{visits: visits, arr0: int32(e.rd.count)}
	for _, ev := range rest {
		if ev.kind == evArrive {
			rp.arr0 = min(rp.arr0, int32(ev.seq/2))
		} else {
			n++
		}
	}
	rp.departs = make([]int32, 0, n)
	b := epochBatch{events: rest, bound: e.batch.bound}
	for {
		for _, ev := range b.events {
			if ev.kind == evDepart {
				rp.departs = append(rp.departs, int32(ev.seq/2))
			}
		}
		rp.epochs = append(rp.epochs, replayEpoch{arrEnd: int32(e.rd.count), depEnd: int32(len(rp.departs)), bound: b.bound})
		rp.maxBatch = max(rp.maxBatch, len(b.events))
		if e.drained {
			break
		}
		b = e.buildEpoch()
	}
	e.batch = epochBatch{}
	e.bufs = [2][]event{}
	e.arrives, e.due, e.departs.bkt = nil, nil, nil
	return rp
}

// gather assembles the next replay epoch into the engine's one batch
// buffer: its arrivals merged with its departures in the total event
// order, in which a departure precedes an arrival at the same instant
// (evDepart < evArrive). The previous batch is fully applied by then, so
// the buffer is free.
func (e *Engine) gather() epochBatch {
	rp, k := e.replay, e.replayed
	e.replayed++
	ep := rp.epochs[k]
	ai, di := rp.arr0, int32(0)
	if k > 0 {
		ai, di = rp.epochs[k-1].arrEnd, rp.epochs[k-1].depEnd
	}
	vs := rp.visits
	evs := e.bufs[0][:0]
	for ai < ep.arrEnd || di < ep.depEnd {
		if di == ep.depEnd || (ai < ep.arrEnd && vs[ai].Start < vs[rp.departs[di]].End) {
			evs = append(evs, event{t: vs[ai].Start, kind: evArrive, seq: 2 * int(ai), visit: vs[ai]})
			ai++
		} else {
			j := rp.departs[di]
			evs = append(evs, event{t: vs[j].End, kind: evDepart, seq: 2*int(j) + 1, visit: vs[j]})
			di++
		}
	}
	e.bufs[0] = evs[:0]
	e.visits = int(ep.arrEnd)
	return epochBatch{events: evs, bound: ep.bound}
}

// Fork builds a new engine whose state equals the snapshot's, draws the
// workload with PacketSchedule under the fork's seed, and returns it
// ready for Run. The forked run's result is bit-identical to a fresh
// engine built with the same trace, router, workload and seed and run end
// to end: the warmup evolves identically (it draws no random numbers and
// sees no packets), the replay is the event order a fresh engine builds,
// and the packet draw is the one construction makes. Forks share nothing
// mutable with the snapshot or with each other, so any number may run
// concurrently. A fork reads no source and keeps no departures: it
// gathers each epoch from the snapshot's replay. A probed snapshot gives
// each fork a probe over its own copy of the warm recorder
// (Context().Probe), which ends equal to the fresh run's recorder.
func Fork(s *Snapshot, w *Workload, seed int64) *Engine {
	cfg := s.cfg
	cfg.Seed = seed
	if cfg.Probe != nil {
		cfg.Probe = telemetry.NewProbe(cfg.Probe.Recorder().Clone())
	}
	e := &Engine{
		start:       s.start,
		end:         s.end,
		measureFrom: s.measureFrom,
		started:     true,
		cursors:     s.cur,
		disrupt:     cfg.Disrupt,
		replay:      s.replay,
	}
	e.bufs[0] = make([]event, 0, s.replay.maxBatch)
	e.batch = e.gather()
	ctx := &Context{
		Trace:   s.trace,
		Cfg:     cfg,
		Metrics: s.metrics.Clone(),
		Probe:   cfg.Probe,
		Check:   cfg.Check,
		engine:  e,
	}
	ctx.Nodes = make([]*Node, len(s.nodes))
	for i, n := range s.nodes {
		cp := *n
		cp.Buffer = n.Buffer.clone()
		ctx.Nodes[i] = &cp
	}
	ctx.Stations = make([]*Station, len(s.stations))
	for i, st := range s.stations {
		cp := *st
		cp.Buffer = st.Buffer.clone()
		ctx.Stations[i] = &cp
	}
	e.ctx = ctx
	e.present = make([][]*Node, len(s.present))
	for lm, ids := range s.present {
		if len(ids) == 0 {
			continue
		}
		set := make([]*Node, len(ids))
		for i, id := range ids {
			set[i] = ctx.Nodes[id]
		}
		e.present[lm] = set
	}
	e.router = s.router.CloneRouter(ctx)
	e.pkts = PacketSchedule(w, cfg, s.start, s.end, s.trace.NumLandmarks)
	return e
}

// clone returns a buffer with the same capacity and contents. Snapshot
// buffers are empty by contract — the packet pointers (shared, mutable,
// and carrying a single-buffer pos slot) could not cross a fork — so only
// the accounting fields are really carried; the defensive content copy
// remains for robustness.
func (b *Buffer) clone() *Buffer {
	cp := &Buffer{Capacity: b.Capacity, used: b.used, live: b.live, minExpiry: b.minExpiry}
	if len(b.packets) > 0 {
		cp.packets = append([]*Packet(nil), b.packets...)
	}
	return cp
}
