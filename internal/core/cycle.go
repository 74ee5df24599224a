package core

import "repro/internal/sim"

// Cycle fast-forward for the contact scheduler (Section IV-D.5).
//
// Inside one contact the upload/forward loop can fall into a cycle. With
// load balancing the station hands a packet to the contact node toward
// its backup next hop (ExpDelay = BackupDelay); the next upload round
// takes it straight back because the station's own delay beats
// 0.9·BackupDelay; each round trip only strengthens the overload
// decision, so the pair of rounds repeats until the contact budget runs
// out — tens of thousands of identical transfers on one long contact.
// schedule detects such a cycle and applies whole cycles in one step,
// ending in exactly the state the plain loop reaches.
//
// Why the skip is exact. A round reads the loop mode, the node-side
// population nn, the ordered station and contact-node buffers with each
// packet's NextHop and ExpDelay, the contact budget and — through route's
// overload test — the landmark's per-unit lbAssigned/lbSent counters.
// Everything else it reads is fixed for the whole contact: presence,
// predictions and dead-end flags, the routing tables, and now (so expiry
// cannot change). Carriers other than the contact node only ever gain
// packets, so an unchanged nn means they gained none. When the
// start-of-round state repeats the one two rounds back, those two rounds
// form a cycle whose only other effect is a fixed increment Δ of the
// budget, ForwardingOps and lbAssigned/lbSent. Packet paths are not
// among them: only loop correction writes Path, and it keeps the plain
// loop because it detects and corrects loops on every upload. So a skip
// costs O(buffer), not O(transfers skipped).
// The cycle then repeats unchanged as long as (a) no transfer inside it
// meets an exhausted budget and (b) every overload sub-predicate keeps
// its value.
// For (b): the counters only grow inside a contact, and both
// sub-predicates — float rounding included — are monotone in each
// counter, so a sub-predicate that agrees at the four corners of the box
// spanned by the observed cycle and the skipped ones is constant on it.
// The counters are integer-valued float64 far below 2^53, so the bulk
// add k×Δ equals k×(cycle) unit increments exactly.
//
// The stamp epochs of forwardPass are not advanced by a skip: they are
// scratch compared only for equality with the current pass, so their
// absolute values are unobservable.

// cycleWarmRounds is the number of rounds a contact runs before schedule
// starts snapshotting: ordinary contacts finish within it and pay one
// integer compare per round.
const cycleWarmRounds = 8

// bufEnt is one buffered packet in a round snapshot, with the fields a
// round reads (NextHop, ExpDelay).
type bufEnt struct {
	p   *sim.Packet
	hop int
	exp float64
}

// roundState is the scheduler state at the start of one round.
type roundState struct {
	gen, round     int // cycleState.gen and round index it was taken in
	mode           string
	nn             int
	st, nd         []bufEnt // station and contact-node buffers, in order
	budget         int
	fwdOps         int64
	assigned, sent []float64
}

// cycleState is the router-owned scratch of the fast-forward: the
// snapshots of the last two rounds (indexed by round parity) and the
// number of skips taken. Tests read skips, and set off to force the plain
// round-by-round loop as the reference.
type cycleState struct {
	snap  [2]roundState
	gen   int
	skips int64
	off   bool
}

// fastForward runs at the start of round (>= cycleWarmRounds) of c's
// schedule: when the loop state repeats the snapshot from two rounds back
// it skips as many whole cycles as the budget and the overload box allow;
// otherwise it records the state for the round two ahead.
func (r *Router) fastForward(ctx *sim.Context, c *sim.Contact, mode string, nn, round int) {
	cy := &r.cycle
	if round == cycleWarmRounds {
		cy.gen++ // snapshots of earlier contacts are stale
	}
	s := &cy.snap[round&1]
	st := ctx.Stations[c.Landmark].Buffer.Packets()
	nd := c.Node.Buffer.Packets()
	if s.gen == cy.gen && s.round == round-2 && s.mode == mode && s.nn == nn &&
		sameBuffer(s.st, st) && sameBuffer(s.nd, nd) && r.skipCycles(ctx, c, s) {
		cy.skips++
		cy.gen++ // both snapshots predate the skip
		return
	}
	ls := r.landmarks[c.Landmark]
	s.gen, s.round, s.mode, s.nn = cy.gen, round, mode, nn
	s.st = appendBuffer(s.st[:0], st)
	s.nd = appendBuffer(s.nd[:0], nd)
	s.budget = c.Budget
	s.fwdOps = ctx.Metrics.ForwardingOps
	s.assigned = append(s.assigned[:0], ls.lbAssigned...)
	s.sent = append(s.sent[:0], ls.lbSent...)
}

// skipCycles applies k whole repetitions of the cycle observed since
// snapshot s, whose buffers equal the current ones. k is the largest
// count that leaves the budget positive, so every skipped transfer would
// have found budget and the plain loop still runs the contact's remaining
// rounds. It reports false, changing nothing, when not even one cycle can
// be skipped exactly.
func (r *Router) skipCycles(ctx *sim.Context, c *sim.Contact, s *roundState) bool {
	cost := s.budget - c.Budget
	if cost <= 0 {
		return false
	}
	k := (c.Budget - 1) / cost
	if k < 1 {
		return false
	}
	ls := r.landmarks[c.Landmark]
	kf := float64(k)
	if r.cfg.LoadBalance {
		for i, a := range ls.lbAssigned {
			da, ds := a-s.assigned[i], ls.lbSent[i]-s.sent[i]
			if (da != 0 || ds != 0) && !r.overloadSteady(ls, i, s.assigned[i], a+kf*da, s.sent[i], ls.lbSent[i]+kf*ds) {
				return false
			}
		}
	}
	c.Budget -= k * cost
	ctx.Metrics.ForwardedN(int64(k) * (ctx.Metrics.ForwardingOps - s.fwdOps))
	for i, a := range ls.lbAssigned {
		ls.lbAssigned[i] = a + kf*(a-s.assigned[i])
		ls.lbSent[i] += kf * (ls.lbSent[i] - s.sent[i])
	}
	return true
}

// overloadSteady reports whether both overload sub-predicates of link
// keep one value over the box [a0,a1]×[s0,s1] of per-unit assigned and
// sent counts. Each is monotone in both counts, so agreement at the four
// corners is exact.
func (r *Router) overloadSteady(ls *landmarkState, link int, a0, a1, s0, s1 float64) bool {
	busy, over := r.overloadAt(ls, link, a0, s0)
	for _, pt := range [3][2]float64{{a1, s0}, {a0, s1}, {a1, s1}} {
		if b, o := r.overloadAt(ls, link, pt[0], pt[1]); b != busy || o != over {
			return false
		}
	}
	return true
}

// sameBuffer reports whether a snapshot matches a live buffer: the same
// packets in the same order with the same routing annotations.
func sameBuffer(snap []bufEnt, pkts []*sim.Packet) bool {
	if len(snap) != len(pkts) {
		return false
	}
	for j, p := range pkts {
		if e := &snap[j]; e.p != p || e.hop != p.NextHop || e.exp != p.ExpDelay {
			return false
		}
	}
	return true
}

// appendBuffer appends the snapshot entries of a live buffer to dst.
func appendBuffer(dst []bufEnt, pkts []*sim.Packet) []bufEnt {
	for _, p := range pkts {
		dst = append(dst, bufEnt{p: p, hop: p.NextHop, exp: p.ExpDelay})
	}
	return dst
}
