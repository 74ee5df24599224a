package core

import (
	"slices"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the packet forwarding algorithm of Section IV-D:
// upload eligibility (steps 1 and 5, plus the prediction-inaccuracy rule of
// IV-D.1), the landmark's forwarding decision (steps 2–4: direct delivery,
// routing-table lookup, carrier selection by overall transit probability),
// and the uplink/downlink communication scheduling of IV-D.5.
//
// The hot path is data-oriented: one pass over the presence set builds
// per-target carrier buckets (so carrier selection is a bucket walk, not a
// rescan of every present node per packet), candidate and eligibility
// orders are realised by slices.SortFunc over dense scratch slices (every
// comparator is a strict total order — packet and node IDs break all ties —
// so the sort algorithm cannot influence the result), and the
// upload/forward scheduler tracks buffer populations incrementally.

// uploadEligible decides whether node state ns should hand packet p to the
// station of landmark lm (step 5): the packet targets lm, lm is the
// packet's assigned next hop, or lm reduces the expected delay to the
// destination below the value recorded in the packet. A declared dead end
// makes everything eligible (Section IV-E.1), and disabling HoldOnWorse
// uploads unconditionally.
func (r *Router) uploadEligible(ns *nodeState, p *sim.Packet, lm int) bool {
	if p.Dst == lm || p.NextHop == lm || ns.deadEnded || !r.cfg.HoldOnWorse {
		return true
	}
	// Require a meaningful reduction (10%) so marginal estimate noise does
	// not bounce the packet between stations and carriers.
	return r.landmarks[lm].table.Delay(p.Dst) < 0.9*p.ExpDelay
}

// stationReceive runs when a packet lands in a station's buffer: with loop
// correction on it stamps the landmark path and runs loop detection
// (Section IV-E.2); it always records the packet against its assigned
// outgoing link for load balancing.
func (r *Router) stationReceive(ctx *sim.Context, lm int, p *sim.Packet) {
	if r.cfg.LoopFix {
		appendPath(p, lm)
		if members, ok := routing.DetectLoop(p.Path); ok {
			r.startCorrection(ctx, lm, p.Dst, members)
		}
	}
	r.recordAssignment(r.landmarks[lm], p)
}

// appendPath appends landmark lm to p's path. Only loop correction reads
// the path, so only it writes one: every other configuration leaves Path
// nil.
func appendPath(p *sim.Packet, lm int) {
	if p.Path == nil {
		p.Path = make([]int, 0, 8) // skip the tiny append-growth steps
	}
	p.Path = append(p.Path, lm)
}

// recordAssignment counts the packet toward the incoming rate of the link
// its current route would use (Section IV-E.3).
func (r *Router) recordAssignment(ls *landmarkState, p *sim.Packet) {
	if next, _ := ls.table.NextHop(p.Dst); next >= 0 {
		ls.lbAssigned[next]++
	}
}

// theta is the load-balancing factor Θ of Section IV-E.3: a link is
// overloaded when its incoming rate exceeds Θ times its outgoing rate.
const theta float64 = 2

// overloaded reports whether landmark state ls considers its outgoing link
// to next overloaded: the incoming rate exceeds theta times the outgoing
// rate and there is material traffic (Section IV-E.3).
func (r *Router) overloaded(ls *landmarkState, next int) bool {
	busy, over := r.overloadAt(ls, next, ls.lbAssigned[next], ls.lbSent[next])
	return busy && over
}

// overloadAt evaluates overloaded's two sub-predicates for the link to
// next at the given per-unit assigned and sent counts: material traffic,
// and incoming rate above theta times the outgoing rate.
func (r *Router) overloadAt(ls *landmarkState, next int, assigned, sent float64) (busy, over bool) {
	in := ls.lbInRate[next] + assigned
	out := ls.lbOutRate[next] + sent
	return in > 4, in > theta*out
}

// route decides the forwarding target for packet p held at landmark lm:
// the destination itself when direct delivery applies, otherwise the
// routing-table next hop (or its backup when the primary link is
// overloaded). It returns target -1 when the packet cannot be routed yet.
// epoch is the forwarding pass that populated directStamp (0 = no presence
// information, so direct delivery never applies).
func (r *Router) route(ctx *sim.Context, lm int, p *sim.Packet, epoch int) (target int, exp float64) {
	ls := r.landmarks[lm]
	if r.cfg.DirectDelivery && p.Dst != lm && epoch > 0 && r.directStamp[p.Dst] == epoch {
		// Some present node is predicted to transit to the destination.
		exp = ls.table.Delay(p.Dst)
		if exp >= routing.Infinite {
			// No table route yet; a single predicted transit is
			// expected to take about one time unit.
			exp = float64(ctx.Cfg.Unit)
		}
		return p.Dst, exp
	}
	if !r.cfg.LoadBalance {
		// Only the best route is read, so a stale backup stays unresolved.
		return ls.table.NextHop(p.Dst)
	}
	e, ok := ls.table.Lookup(p.Dst)
	if !ok {
		return -1, routing.Infinite
	}
	if e.Backup >= 0 && r.overloaded(ls, e.Next) && !r.overloaded(ls, e.Backup) {
		return e.Backup, e.BackupDelay
	}
	return e.Next, e.Delay
}

// carrierEnt is one candidate carrier in a per-target bucket: a present
// node predicted to transit to the bucket's target, with its overall
// transit probability p_o = p_t · p_a (constant for the duration of a
// forwarding pass — predictions, accuracy and dead-end state only change
// on contact and timer events, never inside a pass).
type carrierEnt struct {
	n  *sim.Node
	po float64
}

// cmpCarrier orders a bucket by overall transit probability descending,
// node ID ascending. The first entry that fits a packet is exactly the
// carrier a max-scan over the ID-ordered presence set with a strict
// greater-than would pick: highest p_o, ties to the lower node ID.
func cmpCarrier(a, b carrierEnt) int {
	if a.po != b.po {
		if a.po > b.po {
			return -1
		}
		return 1
	}
	return a.n.ID - b.n.ID
}

// pickCarrier returns the first carrier in the target's bucket that can
// store p, or nil. Only nodes whose predicted next landmark is the target
// qualify (the bucket build enforces this): handing packets to nodes with
// merely nonzero transit probability strands them on carriers that almost
// surely go elsewhere, while a waiting station sees every future visitor.
func pickCarrier(bkt []carrierEnt, p *sim.Packet) (*sim.Node, float64) {
	for i := range bkt {
		if bkt[i].n.Buffer.Fits(p.Size) {
			return bkt[i].n, bkt[i].po
		}
	}
	return nil, 0
}

// cand is one forwarding candidate of a forwardPass.
type cand struct {
	p        *sim.Packet
	target   int
	exp      float64
	feasible bool
}

// cmpCand orders candidates feasible-first, then by minimal remaining TTL,
// then by packet ID (IV-D.5). Packet IDs are unique, so this is a strict
// total order and the sorted sequence is algorithm-independent.
func cmpCand(a, b cand) int {
	if a.feasible != b.feasible {
		if a.feasible {
			return -1
		}
		return 1
	}
	if a.p.Expiry != b.p.Expiry {
		if a.p.Expiry < b.p.Expiry {
			return -1
		}
		return 1
	}
	return a.p.ID - b.p.ID
}

// forwardPass forwards as many station packets as possible from landmark
// lm to connected carriers, honouring the scheduling priority of IV-D.5:
// packets whose expected delay fits their remaining TTL go first, ordered
// by minimal remaining TTL. c is the active contact whose budget applies
// to transfers involving its node (nil outside a contact). It returns the
// number of packets handed to carriers. All intermediate state lives in
// router-owned scratch buffers, so a pass over an uncongested station
// allocates nothing.
func (r *Router) forwardPass(ctx *sim.Context, lm int, c *sim.Contact) int {
	st := ctx.Stations[lm]
	if st.Buffer.Len() == 0 {
		return 0
	}
	present := ctx.NodesAt(lm)
	if len(present) == 0 {
		return 0
	}
	ls := r.landmarks[lm]
	now := ctx.Now()

	// One pass over the presence set classifies every present node:
	// directStamp marks destinations some node is predicted to transit to
	// (the direct-delivery test of step 2 becomes O(1) per packet),
	// reachStamp marks targets that can receive packets this pass, and the
	// per-target buckets hold the qualifying carriers with their overall
	// transit probability precomputed. Stamp arrays replace per-pass maps:
	// stamp[t] == reachEpoch marks t live this pass, and a bucket is only
	// ever read when its target's stamp is live, so stale buckets need no
	// clearing.
	r.reachEpoch++
	epoch := r.reachEpoch
	anyReachable := false
	targets := r.targetScratch[:0]
	for _, n := range present {
		ns := r.nodes[n.ID]
		if ns.predicted < 0 {
			continue
		}
		r.directStamp[ns.predicted] = epoch
		if ns.deadEnded {
			// A node that declared a dead end is stuck; handing packets
			// back to it would undo the prevention.
			continue
		}
		t := ns.predicted
		if r.reachStamp[t] != epoch {
			r.reachStamp[t] = epoch
			r.carrierBkt[t] = r.carrierBkt[t][:0]
			targets = append(targets, t)
			anyReachable = true
		}
		if pt := ns.predProb; pt > 0 {
			po := pt
			if r.cfg.UseAccuracy {
				po *= ns.accVal
			}
			r.carrierBkt[t] = append(r.carrierBkt[t], carrierEnt{n: n, po: po})
		}
	}
	r.targetScratch = targets
	if !anyReachable {
		return 0
	}
	for _, t := range targets {
		if len(r.carrierBkt[t]) > 1 {
			slices.SortFunc(r.carrierBkt[t], cmpCarrier)
		}
	}

	// Order: feasible first, then by remaining TTL ascending. Copy the
	// station queue first: Download mutates it while we iterate.
	pkts := append(r.pktScratch[:0], st.Buffer.Packets()...)
	r.pktScratch = pkts
	cands := r.candScratch[:0]
	for _, p := range pkts {
		if p.Dst == lm {
			continue // node-destined packet waiting at its rendezvous
		}
		target, exp := r.route(ctx, lm, p, epoch)
		if target < 0 || r.reachStamp[target] != epoch {
			continue
		}
		cands = append(cands, cand{p: p, target: target, exp: exp, feasible: exp < float64(p.Remaining(now))})
	}
	r.candScratch = cands
	slices.SortFunc(cands, cmpCand)
	sent := 0
	for _, cd := range cands {
		carrier, _ := pickCarrier(r.carrierBkt[cd.target], cd.p)
		if carrier == nil {
			continue
		}
		var cc *sim.Contact
		if c != nil && carrier == c.Node {
			cc = c
		}
		if !ctx.Download(cc, st, carrier, cd.p) {
			continue
		}
		ctx.Probe.Assigned(now, cd.p.ID, lm, cd.target)
		if ctx.Probe.Enabled() {
			r.emitDecision(ctx, lm, now, cd, targets)
		}
		cd.p.NextHop = cd.target
		cd.p.ExpDelay = cd.exp
		ls.lbSent[cd.target]++
		sent++
	}
	return sent
}

// emitDecision records the committed forwarding decision as a ranked
// telemetry trace: the chosen next hop (rank 0, with the router's own
// expected-delay estimate) plus up to two reachable alternatives ranked
// by their estimated delay through that hop (link delay to the hop plus
// the hop's advertised delay to the destination). Only called when the
// probe is enabled, so the estimate arithmetic never runs on the
// disabled path. dtnflow-inspect -regret joins these against the
// offline oracle.
func (r *Router) emitDecision(ctx *sim.Context, lm int, now trace.Time, cd cand, targets []int) {
	ctx.Probe.Decision(now, cd.p.ID, lm, cd.target, 0, cd.exp)
	ls := r.landmarks[lm]
	// Best two alternatives among the other reachable targets this pass.
	a1, a2 := -1, -1
	var e1, e2 float64
	for _, t := range targets {
		if t == cd.target {
			continue
		}
		est := ls.table.LinkDelay(t)
		if t != cd.p.Dst {
			d := r.landmarks[t].table.Delay(cd.p.Dst)
			if d >= routing.Infinite {
				continue
			}
			est += d
		}
		switch {
		case a1 < 0 || est < e1:
			a2, e2 = a1, e1
			a1, e1 = t, est
		case a2 < 0 || est < e2:
			a2, e2 = t, est
		}
	}
	if a1 >= 0 {
		ctx.Probe.Decision(now, cd.p.ID, lm, a1, 1, e1)
	}
	if a2 >= 0 {
		ctx.Probe.Decision(now, cd.p.ID, lm, a2, 2, e2)
	}
}

// elig is one upload-eligible packet with its feasibility (recorded
// expected delay fits the remaining TTL) precomputed, so the sort
// comparator does no arithmetic.
type elig struct {
	p        *sim.Packet
	feasible bool
}

// cmpElig orders upload-eligible packets feasible-first, then by minimal
// remaining TTL, then by packet ID (IV-D.5 step 3) — a strict total order,
// like cmpCand.
func cmpElig(a, b elig) int {
	if a.feasible != b.feasible {
		if a.feasible {
			return -1
		}
		return 1
	}
	if a.p.Expiry != b.p.Expiry {
		if a.p.Expiry < b.p.Expiry {
			return -1
		}
		return 1
	}
	return a.p.ID - b.p.ID
}

// Communication scheduling parameters (Section IV-D.5): the station
// switches to forwarding when R = N_l / N_n reaches rUp and back to
// uploading when R falls to rDown, and uploads at most nMax packets per
// turn.
const (
	rUp   float64 = 2.0
	rDown float64 = 0.5
	nMax          = 50
)

// uploadBatch uploads up to nMax eligible packets from the contact's node,
// prioritising packets whose expected delay fits their remaining TTL, then
// minimal remaining TTL (IV-D.5 step 3). It returns the number uploaded.
func (r *Router) uploadBatch(ctx *sim.Context, c *sim.Contact) int {
	n := c.Node
	ns := r.nodes[n.ID]
	lm := c.Landmark
	now := ctx.Now()
	el := r.eligScratch[:0]
	for _, p := range n.Buffer.Packets() {
		if r.uploadEligible(ns, p, lm) {
			el = append(el, elig{p: p, feasible: p.ExpDelay < float64(p.Remaining(now))})
		}
	}
	r.eligScratch = el
	slices.SortFunc(el, cmpElig)
	up := 0
	for _, e := range el {
		if up >= nMax {
			break
		}
		if !ctx.Upload(c, n, e.p) {
			if c.Budget <= 0 {
				break
			}
			continue
		}
		up++
		if !e.p.Done() {
			r.stationReceive(ctx, lm, e.p)
		}
	}
	return up
}

// schedule runs the communication scheduling of Section IV-D.5 for one
// contact: the station alternates between uploading (collecting packets
// from the arriving node) and forwarding (handing packets to carriers),
// switching modes on the ratio R of station packets to node packets. The
// node-side population nn is maintained incrementally: an upload batch
// only ever drains the contact node's buffer (its length delta is exact,
// including expiry drops), and a forwarding pass adds exactly its sent
// count to present carriers (Download reports true only when the packet
// lands in the carrier's buffer). The presence set cannot change inside
// the loop — arrivals and departures are events, and events do not nest.
// Long contacts whose rounds settle into a repeating cycle skip whole
// cycles at once (cycle.go) unless a probe or checker must observe every
// transfer, LoopFix detects and corrects loops on every upload, or
// NodeRouting delivers on its own path.
func (r *Router) schedule(ctx *sim.Context, c *sim.Contact) {
	lm := c.Landmark
	st := ctx.Stations[lm]
	if st.Buffer.Len() == 0 && c.Node.Buffer.Len() == 0 {
		// Uploads drain only the contact node and forwarding drains only
		// the station; with both empty no transfer can ever start, so the
		// presence scan below (the cost on the vast majority of contacts)
		// is skipped outright.
		return
	}
	nn := 0
	for _, n := range ctx.NodesAt(lm) {
		nn += n.Buffer.Len()
	}
	ff := !r.cycle.off && !ctx.Probe.Enabled() && ctx.Check == nil && !r.cfg.LoopFix && !r.cfg.NodeRouting
	mode := "upload"
	for round := 0; c.Budget > 0; round++ {
		if ff && round >= cycleWarmRounds {
			r.fastForward(ctx, c, mode, nn, round)
		}
		nl := st.Buffer.Len()
		switch {
		case nn == 0 && nl == 0:
			return
		case nn == 0:
			mode = "forward"
		default:
			ratio := float64(nl) / float64(nn)
			if ratio >= rUp {
				mode = "forward"
			} else if ratio <= rDown {
				mode = "upload"
			}
		}
		progressed := false
		if mode == "upload" {
			before := c.Node.Buffer.Len()
			progressed = r.uploadBatch(ctx, c) > 0
			nn -= before - c.Node.Buffer.Len()
			if !progressed {
				mode = "forward"
				sent := r.forwardPass(ctx, lm, c)
				nn += sent
				progressed = sent > 0
			}
		} else {
			sent := r.forwardPass(ctx, lm, c)
			nn += sent
			progressed = sent > 0
			if !progressed {
				mode = "upload"
				before := c.Node.Buffer.Len()
				progressed = r.uploadBatch(ctx, c) > 0
				nn -= before - c.Node.Buffer.Len()
			}
		}
		if !progressed {
			return
		}
	}
}
