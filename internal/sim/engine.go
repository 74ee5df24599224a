package sim

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config holds the knobs shared by every run; defaults follow the paper's
// experiment settings (Section V-A.1).
type Config struct {
	Seed       int64
	PacketSize int64      // bytes; paper: 1 kB
	NodeMemory int64      // bytes per node; paper default: 2000 kB
	TTL        trace.Time // packet time-to-live
	Unit       trace.Time // measurement time unit (bandwidth, tables)
	Warmup     trace.Time // no packets before this offset; paper: 1/4 of trace
	// LinkRate is the transfer rate between a station and a node in
	// packets per second; it bounds the per-contact transfer budget.
	LinkRate float64
	// MaxContactTransfers caps the budget of a single contact (0 = no cap).
	MaxContactTransfers int
	// StationMemory limits each landmark station's buffer in bytes
	// (<= 0 = unlimited, the paper's setting). Packets that find no room
	// at a station are dropped with metrics.DropNoRoom.
	StationMemory int64
	// Probe receives telemetry events; nil (the default) disables
	// telemetry at zero cost beyond one branch per probe point.
	Probe *telemetry.Probe
	// Check receives invariant-checking hooks (see Checker); nil (the
	// default) disables checking at zero cost beyond one branch per hook
	// point.
	Check Checker
	// Disrupt schedules engine-side disruption effects, sorted by T
	// (internal/disrupt compiles it from a disruption spec). Each action
	// fires immediately before the first processed event at or after its
	// timestamp — the same point whatever the epoch length or source
	// chunking, so a disrupted run over a materialized trace and over the
	// equivalent stream stay bit-identical.
	Disrupt []DisruptAction
}

// DisruptAction is one scheduled disruption effect: at time T, node Node
// churns out of the network and its buffer is flushed — every packet it
// carries is dropped with metrics.DropChurn. Node IDs outside the trace
// are ignored. Actions with T past the last event never fire; the
// packets drain as DropEnd instead, identically on every path.
type DisruptAction struct {
	T    trace.Time
	Node int
}

// DefaultConfig returns the paper's default experiment settings for a
// trace of the given duration: 1 kB packets, 2000 kB node memory, 1/4
// warmup.
func DefaultConfig(traceDuration trace.Time) Config {
	return Config{
		Seed:       1,
		PacketSize: 1024,
		NodeMemory: 2000 * 1024,
		TTL:        20 * trace.Day,
		Unit:       3 * trace.Day,
		Warmup:     traceDuration / 4,
		LinkRate:   2,
	}
}

// Context is the router's interface to the running simulation.
type Context struct {
	Trace    *trace.Trace
	Cfg      Config
	Nodes    []*Node
	Stations []*Station
	Metrics  *metrics.Collector
	// Probe is the telemetry hook (nil when telemetry is off; every
	// method is a nil-safe no-op, so callers never check).
	Probe *telemetry.Probe
	// Check is the invariant-checker hook (nil when checking is off;
	// callers guard with a nil comparison).
	Check Checker

	engine *Engine
}

// Now returns the current simulation time.
func (ctx *Context) Now() trace.Time { return ctx.engine.now }

// MeasureFrom returns the start of the measurement window (trace start +
// warmup); packets created before it do not count toward the metrics.
func (ctx *Context) MeasureFrom() trace.Time { return ctx.engine.measureFrom }

// NumLandmarks returns the number of landmarks.
func (ctx *Context) NumLandmarks() int { return ctx.Trace.NumLandmarks }

// NodesAt returns the nodes currently connected to landmark lm, in ID
// order.
//
// Aliasing contract: the returned slice is the engine's live presence set
// for lm, kept ID-ordered incrementally — not a copy. It is valid until
// the next arrive or depart event; callers that only iterate (the common
// hot path) pay no allocation or sort. Callers must not mutate, append
// to, or retain the slice across events; copy it first if they need to.
func (ctx *Context) NodesAt(lm int) []*Node {
	return ctx.engine.present[lm]
}

// Schedule registers fn to run at time t (>= now). Routers use this for
// protocol timers (dead-end checks, loop-correction periods).
func (ctx *Context) Schedule(t trace.Time, fn func()) {
	e := ctx.engine
	if t < e.now {
		t = e.now
	}
	e.timers.push(event{t: t, kind: evTimer, seq: e.timerSeq, fn: fn})
	e.timerSeq++
}

// chargeBudget consumes one transfer from the contact budget; it reports
// false when the budget is exhausted. A nil contact (engine-internal
// transfers) always succeeds.
func chargeBudget(c *Contact) bool {
	if c == nil {
		return true
	}
	if c.Budget <= 0 {
		return false
	}
	c.Budget--
	return true
}

// expireFromBuffer drops every expired packet from b. The buffer's
// min-expiry watermark (a lower bound on every stored packet's TTL
// deadline) lets the common case — no packet can be expired yet — return
// without touching the packets at all; a sweep retightens the bound. The
// engine-owned scratch slice is reused across calls, so even a scanning
// sweep allocates nothing.
func (ctx *Context) expireFromBuffer(b *Buffer) {
	now := ctx.engine.now
	if b.live == 0 || now < b.minExpiry {
		return
	}
	expired := ctx.engine.expireScratch[:0]
	min := maxTime
	for _, p := range b.Packets() {
		if p.Expired(now) {
			expired = append(expired, p)
		} else if p.Expiry < min {
			min = p.Expiry
		}
	}
	for _, p := range expired {
		b.Remove(p)
		ctx.dropPacket(p, metrics.DropTTL)
	}
	b.minExpiry = min
	ctx.engine.expireScratch = expired[:0]
}

func (ctx *Context) dropPacket(p *Packet, r metrics.DropReason) {
	if p.Done() {
		return
	}
	p.state |= stateDropped
	ctx.Probe.Dropped(ctx.engine.now, p.ID, r)
	if ck := ctx.Check; ck != nil {
		ck.Dropped(ctx.engine.now, p, r)
	}
	if p.Created >= ctx.engine.measureFrom {
		ctx.Metrics.PacketDropped(r)
	}
}

// deliverPacket marks p delivered at the current time at landmark at.
func (ctx *Context) deliverPacket(p *Packet, at int) {
	if p.Done() {
		return
	}
	p.state |= stateDelivered
	ctx.Probe.Delivered(ctx.engine.now, p.ID, at, ctx.engine.now-p.Created)
	if ck := ctx.Check; ck != nil {
		ck.Delivered(ctx.engine.now, p, at)
	}
	if p.Created >= ctx.engine.measureFrom {
		ctx.Metrics.PacketDelivered(ctx.engine.now - p.Created)
	}
}

// Upload moves a packet from a node to the station of the landmark it is
// visiting, counting one forwarding operation. If the landmark is the
// packet's destination the packet is delivered. It reports whether the
// transfer happened (budget exhaustion or expiry prevent it).
func (ctx *Context) Upload(c *Contact, n *Node, p *Packet) bool {
	if p.Expired(ctx.engine.now) {
		n.Buffer.Remove(p)
		ctx.dropPacket(p, metrics.DropTTL)
		return false
	}
	if !chargeBudget(c) {
		return false
	}
	if !n.Buffer.Remove(p) {
		panic(fmt.Sprintf("sim: upload of %v not held by node %d", p, n.ID))
	}
	ctx.Metrics.Forwarded()
	st := ctx.Stations[n.At]
	ctx.Probe.Forwarded(ctx.engine.now, telemetry.HopUpload, p.ID, n.ID, st.ID)
	if ck := ctx.Check; ck != nil {
		ck.Transferred(ctx.engine.now, telemetry.HopUpload, p, n.ID, st.ID)
	}
	if st.ID == p.Dst && p.DstNode < 0 {
		ctx.deliverPacket(p, st.ID)
		return true
	}
	if !st.Buffer.Add(p) {
		ctx.dropPacket(p, metrics.DropNoRoom)
		return true
	}
	ctx.Probe.Queued(ctx.engine.now, p.ID, st.ID, st.Buffer.Len())
	return true
}

// Download moves a packet from a station to a connected node, counting one
// forwarding operation. It reports false when the node lacks space, the
// budget is exhausted, or the packet expired.
func (ctx *Context) Download(c *Contact, st *Station, n *Node, p *Packet) bool {
	if p.Expired(ctx.engine.now) {
		st.Buffer.Remove(p)
		ctx.dropPacket(p, metrics.DropTTL)
		return false
	}
	if !n.Buffer.Fits(p.Size) {
		return false
	}
	if !chargeBudget(c) {
		return false
	}
	if !st.Buffer.Remove(p) {
		panic(fmt.Sprintf("sim: download of %v not held by station %d", p, st.ID))
	}
	ctx.Metrics.Forwarded()
	ctx.Probe.Forwarded(ctx.engine.now, telemetry.HopDownload, p.ID, st.ID, n.ID)
	if ck := ctx.Check; ck != nil {
		ck.Transferred(ctx.engine.now, telemetry.HopDownload, p, st.ID, n.ID)
	}
	n.Buffer.Add(p)
	return true
}

// Relay moves a packet between two co-located nodes (the baselines'
// node-to-node forwarding), counting one forwarding operation.
func (ctx *Context) Relay(c *Contact, from, to *Node, p *Packet) bool {
	if p.Expired(ctx.engine.now) {
		from.Buffer.Remove(p)
		ctx.dropPacket(p, metrics.DropTTL)
		return false
	}
	if !to.Buffer.Fits(p.Size) {
		return false
	}
	if !chargeBudget(c) {
		return false
	}
	if !from.Buffer.Remove(p) {
		panic(fmt.Sprintf("sim: relay of %v not held by node %d", p, from.ID))
	}
	ctx.Metrics.Forwarded()
	ctx.Probe.Forwarded(ctx.engine.now, telemetry.HopRelay, p.ID, from.ID, to.ID)
	if ck := ctx.Check; ck != nil {
		ck.Transferred(ctx.engine.now, telemetry.HopRelay, p, from.ID, to.ID)
	}
	to.Buffer.Add(p)
	return true
}

// DeliverToNode marks a node-destined packet delivered while held by node
// n (node-routing mode, Section IV-E.4).
func (ctx *Context) DeliverToNode(n *Node, p *Packet) {
	n.Buffer.Remove(p)
	ctx.deliverPacket(p, n.At)
}

// DeliverFromStation marks a packet held by station st as delivered (used
// by node-routing mode when the destination node connects).
func (ctx *Context) DeliverFromStation(st *Station, n *Node, p *Packet) bool {
	if p.Expired(ctx.engine.now) {
		st.Buffer.Remove(p)
		ctx.dropPacket(p, metrics.DropTTL)
		return false
	}
	if !st.Buffer.Remove(p) {
		return false
	}
	ctx.Metrics.Forwarded()
	ctx.Probe.Forwarded(ctx.engine.now, telemetry.HopDownload, p.ID, st.ID, n.ID)
	if ck := ctx.Check; ck != nil {
		ck.Transferred(ctx.engine.now, telemetry.HopDownload, p, st.ID, n.ID)
	}
	ctx.deliverPacket(p, st.ID)
	return true
}

// ExpireBuffers drops expired packets from the given node's buffer and the
// given station's buffer (either may be nil).
func (ctx *Context) ExpireBuffers(n *Node, st *Station) {
	if n != nil {
		ctx.expireFromBuffer(n.Buffer)
	}
	if st != nil {
		ctx.expireFromBuffer(st.Buffer)
	}
}

// Engine runs one simulation. Its events come from four sources merged in
// the total event order (heap.go): visit arrivals and departures, drawn
// epoch by epoch from a trace.Source (stream.go) or, on a fork, from the
// snapshot's replay (fork.go), and the time-unit, packet-generation and
// router-timer cursors.
type Engine struct {
	ctx         *Context
	router      Router
	start, end  trace.Time
	measureFrom trace.Time
	// started records that the router has been initialised and event
	// processing has begun; Run and RunWarmup initialise at most once, and
	// Fork produces engines that are already started.
	started bool
	cursors
	// present[lm] is the ID-ordered set of nodes connected to landmark lm,
	// maintained incrementally on arrive/depart. Context.NodesAt returns
	// these slices directly (see its aliasing contract).
	present       [][]*Node
	expireScratch []*Packet
	// disrupt is the scheduled disruption-action list (Config.Disrupt);
	// cursors.nextDisrupt indexes the first not-yet-fired action.
	disrupt []DisruptAction

	// Visit side (stream.go): the reader over the source, the departures
	// waiting for their epoch, the built epoch being applied, and the
	// prefetcher's double-buffered batches and assembly scratch. A forked
	// engine has no reader and no departures: it gathers each epoch from
	// the snapshot's replay (fork.go) into bufs[0]; replayed is the next
	// replay epoch to gather.
	rd       visitReader
	departs  departBuckets // its epoch is the engine's merge granularity
	replay   *replay
	replayed int
	batch    epochBatch
	bufs     [2][]event
	nextBuf  int
	arrives  []event
	due      []event

	// contact is the one Contact every arrival rewrites and hands to
	// Router.OnContact (see the lifetime contract on Contact).
	contact Contact

	// Cursor side: the scheduled workload (pkts[gi] is the next
	// generation) and the router timers, the only events on the heap.
	pkts     []*Packet
	gi       int
	timers   eventHeap
	timerSeq int
}

// cursors is the engine's position in its event sources apart from the
// reader and the pending departures: plain values, so a snapshot and a
// fork copy it by assignment.
type cursors struct {
	now         trace.Time
	epEnd       trace.Time // end of the next epoch to build
	drained     bool       // the source is exhausted: the last epoch is built
	unitN       int        // number of the next time unit
	unitT       trace.Time // its timestamp
	nextDisrupt int
	epochs      int // epochs built
	visits      int // visits taken into built epochs
	events      int // events applied
}

// New assembles an engine for one run over a materialized trace, which
// must be preprocessed (sorted, validated). The context trace is tr
// itself, visits included.
func New(tr *trace.Trace, r Router, w *Workload, cfg Config) *Engine {
	start, end := tr.Span()
	return newEngine(tr, trace.NewSliceSource(tr, 0), r, w, cfg, 0, start, end)
}

// newEngine assembles the per-run state: context, node and station
// populations, presence sets, the measurement boundary, the visit reader
// and the cursors. epoch <= 0 means one day.
func newEngine(tr *trace.Trace, src trace.Source, r Router, w *Workload, cfg Config, epoch, start, end trace.Time) *Engine {
	if epoch <= 0 {
		epoch = trace.Day
	}
	e := &Engine{
		router:      r,
		start:       start,
		end:         end,
		measureFrom: start + cfg.Warmup,
		disrupt:     cfg.Disrupt,
		rd:          visitReader{src: src, nodes: tr.NumNodes, lms: tr.NumLandmarks, start: start, end: end},
		departs:     departBuckets{start: start, epoch: epoch},
		batch:       epochBatch{bound: start},
		cursors:     cursors{epEnd: start + epoch, unitT: start + cfg.Unit},
	}
	ctx := &Context{
		Trace:   tr,
		Cfg:     cfg,
		Metrics: &metrics.Collector{},
		Probe:   cfg.Probe,
		Check:   cfg.Check,
		engine:  e,
	}
	for i := 0; i < tr.NumNodes; i++ {
		ctx.Nodes = append(ctx.Nodes, &Node{ID: i, Buffer: NewBuffer(cfg.NodeMemory), At: -1, Prev: -1})
	}
	for i := 0; i < tr.NumLandmarks; i++ {
		ctx.Stations = append(ctx.Stations, &Station{ID: i, Buffer: NewBuffer(cfg.StationMemory)})
	}
	e.ctx = ctx
	e.present = make([][]*Node, tr.NumLandmarks)
	e.pkts = PacketSchedule(w, cfg, start, end, tr.NumLandmarks)
	return e
}

// Context exposes the engine's context (for routers needing setup access
// before Run, e.g. fault injection in the loop experiment).
func (e *Engine) Context() *Context { return e.ctx }

// addPresent inserts n into landmark lm's ID-ordered presence set. The
// insert is idempotent so malformed traces (zero-length visits) cannot
// duplicate a node.
func (e *Engine) addPresent(lm int, n *Node) {
	s := e.present[lm]
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= n.ID })
	if i < len(s) && s[i].ID == n.ID {
		return
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = n
	e.present[lm] = s
}

// removePresent deletes node id from landmark lm's presence set (no-op
// when absent).
func (e *Engine) removePresent(lm, id int) {
	s := e.present[lm]
	i := sort.Search(len(s), func(i int) bool { return s[i].ID >= id })
	if i < len(s) && s[i].ID == id {
		copy(s[i:], s[i+1:])
		s[len(s)-1] = nil
		e.present[lm] = s[:len(s)-1]
	}
}

// maxTime is past every event timestamp (trace times are int64 seconds).
const maxTime = trace.Time(1) << 62

// RunWarmup executes the warmup phase only: every event strictly before
// the measurement start (trace visits, time units, protocol timers). The
// engine can then either continue with Run — processing the remaining
// events exactly as an uninterrupted Run would — or serve as the source of
// a Snapshot from which seeded measured runs are forked (see fork.go).
func (e *Engine) RunWarmup() {
	e.runUntil(e.measureFrom)
}

// contactBudget derives an arrival's transfer budget from the visit
// duration and the link rate, capped by MaxContactTransfers.
func (e *Engine) contactBudget(v trace.Visit) int {
	dur := v.End - v.Start
	budget := int(e.ctx.Cfg.LinkRate * float64(dur))
	if budget < 1 {
		budget = 1
	}
	if e.ctx.Cfg.MaxContactTransfers > 0 && budget > e.ctx.Cfg.MaxContactTransfers {
		budget = e.ctx.Cfg.MaxContactTransfers
	}
	return budget
}

// advanceDisrupt fires every scheduled disruption action with T <= t:
// the churned node's buffer is flushed so a carrier that left the
// network carries no packets.
func (e *Engine) advanceDisrupt(t trace.Time) {
	for e.nextDisrupt < len(e.disrupt) && e.disrupt[e.nextDisrupt].T <= t {
		a := e.disrupt[e.nextDisrupt]
		e.nextDisrupt++
		if a.Node < 0 || a.Node >= len(e.ctx.Nodes) {
			continue
		}
		n := e.ctx.Nodes[a.Node]
		if n.Buffer.Len() > 0 {
			flush := append(e.expireScratch[:0], n.Buffer.Packets()...)
			for _, p := range flush {
				n.Buffer.Remove(p)
				e.ctx.dropPacket(p, metrics.DropChurn)
			}
			e.expireScratch = flush[:0]
		}
	}
}

// apply executes one event. The caller (applyBatch, stream.go) has already
// advanced e.now to the event's timestamp; every state transition —
// presence sets, router callbacks, packet accounting — lives here and
// nowhere else.
func (e *Engine) apply(ev event) {
	if e.nextDisrupt < len(e.disrupt) {
		e.advanceDisrupt(ev.t)
	}
	switch ev.kind {
	case evArrive:
		v := ev.visit
		n := e.ctx.Nodes[v.Node]
		n.At = v.Landmark
		n.VisitStart = v.Start
		n.VisitEnd = v.End
		e.addPresent(v.Landmark, n)
		c := &e.contact
		*c = Contact{Node: n, Landmark: v.Landmark, Start: v.Start, End: v.End, Budget: e.contactBudget(v)}
		e.ctx.ExpireBuffers(n, e.ctx.Stations[v.Landmark])
		e.router.OnContact(e.ctx, c)
	case evDepart:
		v := ev.visit
		n := e.ctx.Nodes[v.Node]
		e.removePresent(v.Landmark, v.Node)
		e.router.OnDepart(e.ctx, n, v.Landmark)
		if n.At == v.Landmark {
			n.At = -1
			n.Prev = v.Landmark
			n.PrevDepart = v.End
		}
	case evGenerate:
		p := ev.pkt
		if p.Created >= e.measureFrom {
			e.ctx.Metrics.PacketGenerated()
		}
		e.ctx.Probe.Generated(e.now, p.ID, p.Src, p.Dst)
		if ck := e.ctx.Check; ck != nil {
			ck.Generated(e.now, p)
		}
		if p.Src == p.Dst && p.DstNode < 0 {
			e.ctx.deliverPacket(p, p.Src)
			return
		}
		st := e.ctx.Stations[p.Src]
		if !st.Buffer.Add(p) {
			e.ctx.dropPacket(p, metrics.DropNoRoom)
			return
		}
		e.ctx.Probe.Queued(e.now, p.ID, p.Src, st.Buffer.Len())
		e.router.OnGenerate(e.ctx, p)
	case evUnit:
		if prb := e.ctx.Probe; prb.Enabled() {
			for lm, st := range e.ctx.Stations {
				prb.QueueDepth(e.now, lm, st.Buffer.Len())
			}
		}
		e.router.OnTimeUnit(e.ctx, ev.unit)
		if ck := e.ctx.Check; ck != nil {
			ck.Scan(e.now, e.ctx)
		}
	case evTimer:
		ev.fn()
	}
}

// Run executes the simulation and returns the result. Packets still in
// flight at the end are counted as failed. On a fresh engine Run performs
// the whole simulation; after RunWarmup (or on a forked engine) it
// continues from the warmup boundary.
func (e *Engine) Run() *Result {
	e.runUntil(maxTime)
	// The final scan runs before the end-of-run drain: draining flags
	// packets terminal while leaving the buffers untouched, which would
	// trip the "no terminal packet in a buffer" invariant by design.
	if ck := e.ctx.Check; ck != nil {
		ck.Scan(e.now, e.ctx)
	}
	// Account packets still in flight. dropPacket only flags the packet
	// and counts it — the buffer is left untouched — so the end-of-run
	// drain iterates the live buffers directly.
	for _, n := range e.ctx.Nodes {
		for _, p := range n.Buffer.Packets() {
			e.ctx.dropPacket(p, metrics.DropEnd)
		}
	}
	for _, st := range e.ctx.Stations {
		for _, p := range st.Buffer.Packets() {
			e.ctx.dropPacket(p, metrics.DropEnd)
		}
	}
	if ck := e.ctx.Check; ck != nil {
		ck.Finish(e.ctx)
	}
	dur := e.end - e.measureFrom
	return &Result{
		Summary:  e.ctx.Metrics.Summarize(e.router.Name(), dur),
		Raw:      e.ctx.Metrics,
		Duration: dur,
	}
}
