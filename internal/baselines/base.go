// Package baselines re-implements the five comparison algorithms of
// Section V-A — SimBet, PROPHET, PGR, GeoComm and PER — adapted to
// landmark-to-landmark routing exactly as the paper describes: each method
// scores a node's suitability to carry a packet to a destination landmark;
// packets are generated at landmark stations, handed to the best-scoring
// connected node, relayed between co-located nodes toward higher scores,
// and delivered when a carrier visits the destination landmark.
//
// All methods share the Base chassis, which implements the contact
// mechanics, single-copy forwarding, memory limits, and the cost
// accounting (two encountering nodes exchange their per-landmark
// suitability vectors, costing one unit per table entry).
package baselines

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Method is the algorithm-specific part of a baseline router.
type Method interface {
	// Name identifies the method.
	Name() string
	// Init sizes internal state.
	Init(ctx *sim.Context)
	// OnVisit updates the method's state when node n connects to lm.
	OnVisit(ctx *sim.Context, n *sim.Node, lm int)
	// Score rates node's suitability to deliver a packet to landmark dst
	// within the remaining time budget; higher is better, <= 0 means
	// unsuitable.
	Score(ctx *sim.Context, node int, dst int, remaining trace.Time) float64
	// Clone returns an independent deep copy of the method's state for
	// warm-state forking (sim.Cloner). It must be a pure read of the
	// receiver: clones of one frozen method are taken concurrently.
	Clone() Method
}

// Base adapts a Method into a sim.Router.
type Base struct {
	m Method

	// Reusable scratch buffers for the per-contact hot paths. Each engine
	// owns its router, so per-router scratch is race-free.
	dueScratch  []*sim.Packet
	moveScratch []*sim.Packet
	freeScratch []*sim.Node
	pktScratch  []*sim.Packet
}

var (
	_ sim.Router = (*Base)(nil)
	_ sim.Cloner = (*Base)(nil)
)

// NewBase wraps a method.
func NewBase(m Method) *Base { return &Base{m: m} }

// CloneRouter implements sim.Cloner: a new chassis around a deep copy of
// the method's state. The scratch buffers start fresh — they are reset
// before every use and carry no state between contacts.
func (b *Base) CloneRouter(ctx *sim.Context) sim.Router {
	return &Base{m: b.m.Clone()}
}

// Name implements sim.Router.
func (b *Base) Name() string { return b.m.Name() }

// Init implements sim.Router.
func (b *Base) Init(ctx *sim.Context) { b.m.Init(ctx) }

// OnGenerate implements sim.Router: try to hand the new packet to a
// connected carrier right away.
func (b *Base) OnGenerate(ctx *sim.Context, p *sim.Packet) {
	b.stationHandoff(ctx, p.Src, nil)
}

// OnDepart implements sim.Router (baselines carry no per-visit state out).
func (b *Base) OnDepart(ctx *sim.Context, n *sim.Node, lm int) {}

// OnTimeUnit implements sim.Router.
func (b *Base) OnTimeUnit(ctx *sim.Context, seq int) {}

// OnContact implements sim.Router.
func (b *Base) OnContact(ctx *sim.Context, c *sim.Contact) {
	n := c.Node
	lm := c.Landmark
	b.m.OnVisit(ctx, n, lm)

	// 1. Delivery: upload every packet destined to this landmark.
	due := b.dueScratch[:0]
	for _, p := range n.Buffer.Packets() {
		if p.Dst == lm {
			due = append(due, p)
		}
	}
	for _, p := range due {
		ctx.Upload(c, n, p)
	}
	b.dueScratch = due[:0]

	// 2. Source handoff: the station gives waiting packets to the
	// best-scoring connected carrier.
	b.stationHandoff(ctx, lm, c)

	// 3. Peer exchange: the arriving node and each already-present node
	// swap suitability tables (cost: one per entry per direction) and
	// forward packets toward the higher score.
	present := ctx.NodesAt(lm)
	for _, m := range present {
		if m.ID == n.ID {
			continue
		}
		ctx.Metrics.Control(ctx.NumLandmarks())
		ctx.Metrics.Control(ctx.NumLandmarks())
		b.exchange(ctx, c, m, n)
		b.exchange(ctx, c, n, m)
	}
	if peers := len(present) - 1; peers > 0 {
		ctx.Probe.Exchange(ctx.Now(), lm, n.ID, peers)
	}
}

// exchange forwards packets held by from to to when to has room for the
// packet and scores strictly higher for its destination. A packet that
// does not fit is not scored: room cannot change inside the loop, since
// packets move only after it, and every method but PGR scores purely.
// The one exception is from's first packet, scored on both sides whether
// it fits or not, for PGR: its cached route depends on which of a node's
// visits contain at least one scoring (see PGR's cache field), and the
// first packet keeps that set what it was when every packet was scored.
// The exception goes once PGR.OnVisit invalidates the route.
func (b *Base) exchange(ctx *sim.Context, c *sim.Contact, from, to *sim.Node) {
	now := ctx.Now()
	ck := ctx.Check
	moving := b.moveScratch[:0]
	for i, p := range from.Buffer.Packets() {
		fits := to.Buffer.Fits(p.Size)
		if !fits && i > 0 {
			continue
		}
		rem := p.Remaining(now)
		sf := b.m.Score(ctx, from.ID, p.Dst, rem)
		st := b.m.Score(ctx, to.ID, p.Dst, rem)
		if ck != nil {
			ck.Score(now, b.m.Name(), from.ID, p.Dst, sf)
			ck.Score(now, b.m.Name(), to.ID, p.Dst, st)
		}
		if fits && st > sf && st > 0 {
			moving = append(moving, p)
		}
	}
	for _, p := range moving {
		var cc *sim.Contact
		if c != nil && (from == c.Node || to == c.Node) {
			cc = c
		}
		ctx.Relay(cc, from, to, p)
	}
	b.moveScratch = moving[:0]
}

// stationHandoff moves station packets to the best-scoring connected node.
func (b *Base) stationHandoff(ctx *sim.Context, lm int, c *sim.Contact) {
	st := ctx.Stations[lm]
	if st.Buffer.Len() == 0 {
		return
	}
	// Under memory pressure most visitors are full; dropping them up
	// front keeps congested stations (thousands of queued packets) cheap
	// to serve. NodesAt aliases the engine's live presence set, so the
	// filter goes through a router-owned scratch slice, never in place.
	free := b.freeScratch[:0]
	for _, n := range ctx.NodesAt(lm) {
		if n.Buffer.Free() > 0 {
			free = append(free, n)
		}
	}
	b.freeScratch = free
	present := free
	if len(present) == 0 {
		return
	}
	now := ctx.Now()
	ck := ctx.Check
	// Copy the station queue: Download mutates it while we iterate.
	pkts := append(b.pktScratch[:0], st.Buffer.Packets()...)
	b.pktScratch = pkts
	for _, p := range pkts {
		var best *sim.Node
		bestS := 0.0
		for _, n := range present {
			if !n.Buffer.Fits(p.Size) {
				continue
			}
			s := b.m.Score(ctx, n.ID, p.Dst, p.Remaining(now))
			if ck != nil {
				ck.Score(now, b.m.Name(), n.ID, p.Dst, s)
			}
			if s > bestS {
				best, bestS = n, s
			}
		}
		if best == nil && c != nil && c.Node.Buffer.Fits(p.Size) {
			// No connected node scores for this destination yet. The
			// original node-to-node methods generate packets on mobile
			// nodes, which simply carry them until a better relay turns
			// up; the landmark adaptation models that by handing the
			// packet to the newly arrived visitor.
			best = c.Node
		}
		if best == nil {
			continue
		}
		var cc *sim.Contact
		if c != nil && best == c.Node {
			cc = c
		}
		if ctx.Download(cc, st, best, p) {
			// Score-based methods route toward the destination itself;
			// record the hand-off against the lm -> dst flow. The decision
			// trace carries the same target (baselines have no landmark
			// alternatives — the candidate set is carriers, not next
			// hops), with the winning carrier's score as the estimate.
			ctx.Probe.Assigned(now, p.ID, lm, p.Dst)
			ctx.Probe.Decision(now, p.ID, lm, p.Dst, 0, bestS)
		}
	}
}
