package sim

import (
	"fmt"
	"slices"

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
// engine's router, nodes, stations, metrics and telemetry recorder, and
// its position in the event order: the reader's place in the trace's
// visit slice, the pending departures, the built epoch's unapplied events
// and the cursors. Fork deep-clones the mutable parts per seeded run, so
// one snapshot serves any number of concurrent forks. The snapshotted
// engine must not be run further.
type Snapshot struct {
	trace       *trace.Trace
	cfg         Config
	router      Cloner
	nodes       []*Node
	stations    []*Station
	present     [][]int // presence sets by node ID (rebound to clones)
	start, end  trace.Time
	measureFrom trace.Time
	rd          visitReader // over a *trace.SliceSource; copied per fork
	departs     departBuckets
	batch       epochBatch // unapplied events only; shared read-only
	cur         cursors
	metrics     *metrics.Collector
}

// Snapshot captures the engine's complete state for forking. It fails
// when the router does not implement Cloner, when warmup has not been run,
// when the engine streams from a source other than a materialized trace
// (only a trace.SliceSource can be resumed per fork), or when the warm
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
		rd:          e.rd.resumed(src),
		departs:     e.departs.clone(),
		batch:       epochBatch{events: slices.Clone(e.batch.events[e.batch.next:]), bound: e.batch.bound},
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
	return s, nil
}

// resumed returns a copy of the reader over its own copy of src — a
// SliceSource value is an independent cursor at the same position — so
// the copy continues the stream without touching r. The current chunk is
// a view of the trace's visits, which nobody writes.
func (r *visitReader) resumed(src *trace.SliceSource) visitReader {
	cp, srcCopy := *r, *src
	cp.src = &srcCopy
	return cp
}

// Fork builds a new engine whose state equals the snapshot's, draws the
// workload with PacketSchedule under the fork's seed, and returns it
// ready for Run. The forked run's result is bit-identical to a fresh
// engine built with the same trace, router, workload and seed and run end
// to end: the warmup evolves identically (it draws no random numbers and
// sees no packets), and the packet draw is the one construction makes.
// Forks share nothing mutable with the snapshot or with each other, so
// any number may run concurrently. A probed snapshot gives each fork a
// probe over its own copy of the warm recorder (Context().Probe), which
// ends equal to the fresh run's recorder.
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
		rd:          s.rd.resumed(s.rd.src.(*trace.SliceSource)),
		departs:     s.departs.clone(),
		batch:       s.batch,
	}
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
