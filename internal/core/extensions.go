package core

import (
	"sort"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file implements the advanced extensions of Section IV-E: dead-end
// prevention (IV-E.1) and routing-loop detection and correction (IV-E.2).
// Load balancing (IV-E.3) lives in forward.go next to the routing decision
// it modifies, and node-destination routing (IV-E.4) in noderoute.go.

// deadEndMinVisits is the visit history a node needs before dead-end
// detection (Section IV-E.1) trusts its average stay times.
const deadEndMinVisits = 10

// armDeadEnd schedules the stay-time check of Section IV-E.1 for the
// current visit. A dead end is declared when the node has stayed Gamma
// times longer than its historical average stay — either its overall
// average (a dead end on its regular route) or its average at this
// landmark (an abrupt dead end). On detection the node hands all its
// packets to the landmark, which re-routes them through other carriers.
func (r *Router) armDeadEnd(ctx *sim.Context, c *sim.Contact) {
	n := c.Node
	ns := r.nodes[n.ID]
	if ns.totalCnt < deadEndMinVisits {
		return
	}
	lm := c.Landmark
	// The stay must exceed γ times both the node's overall average stay
	// and (when known) its average stay at this landmark: regular long
	// stays — nights at a dorm, overnight depot parking — are the norm at
	// their landmark and must not read as dead ends (the paper sets γ
	// "to a relatively large value to prevent false positives").
	avgAll := float64(ns.totalSum) / float64(ns.totalCnt)
	threshold := r.cfg.Gamma * avgAll
	if st := ns.stay[lm]; st.cnt > 0 {
		if local := r.cfg.Gamma * float64(st.sum) / float64(st.cnt); local > threshold {
			threshold = local
		}
	}
	fireAt := c.Start + trace.Time(threshold)
	if fireAt >= c.End {
		return // the visit ends before a dead end could be declared
	}
	visitEnd := c.End
	ctx.Schedule(fireAt, func() {
		if n.At != lm || n.VisitEnd != visitEnd || n.Buffer.Len() == 0 {
			return
		}
		ns.deadEnded = true
		pkts := append([]*sim.Packet(nil), n.Buffer.Packets()...)
		for _, p := range pkts {
			if ctx.Upload(nil, n, p) && !p.Done() {
				r.stationReceive(ctx, lm, p)
			}
		}
		r.forwardPass(ctx, lm, nil)
	})
}

// startCorrection launches loop correction (Section IV-E.2): the detecting
// landmark generates a correction notice for every landmark involved in the
// loop; the notices spread inside departing mobile nodes, and each involved
// landmark, on receipt, keeps re-advertising its distance vector (with the
// forced-merge semantics) for the loop period so the stale state that
// formed the loop is overwritten.
func (r *Router) startCorrection(ctx *sim.Context, lm, dest int, members []int) {
	ls := r.landmarks[lm]
	now := ctx.Now()
	// The loop period P of Section IV-E.2 is one time unit (the paper
	// sets P to the average time a packet takes to traverse the loop).
	period := ctx.Cfg.Unit
	// Deduplicate: one correction round per destination per period.
	for _, nt := range ls.notices {
		if nt.Dest == dest && now < nt.Expiry {
			return
		}
	}
	expiry := now + 4*period
	for _, m := range members {
		if m == lm {
			continue
		}
		ls.notices = append(ls.notices, correctionNotice{To: m, Dest: dest, Expiry: expiry})
	}
	// The detecting landmark corrects itself immediately.
	if until := now + period; until > ls.forcedUntil[dest] {
		ls.forcedUntil[dest] = until
	}
	sort.Slice(ls.notices, func(i, j int) bool {
		if ls.notices[i].To != ls.notices[j].To {
			return ls.notices[i].To < ls.notices[j].To
		}
		return ls.notices[i].Dest < ls.notices[j].Dest
	})
}

// InjectLoop corrupts the control plane to create a persistent routing
// loop for destination dest, used by the Table VII experiment ("we
// purposely created loops in this test"). It picks the destination's main
// gateway A — the neighbour delivering to dest with the smallest delay —
// and a second landmark C adjacent to A, then plants fake stored vectors
// with far-future sequence numbers in both: A believes C has a tiny delay
// to dest and C believes the same of A. A and C route dest through each
// other, advertise attractively small delays that pull surrounding traffic
// into the loop, and normal periodic advertisements cannot displace the
// fake state (stale-sequence rejection) — only the forced merges of loop
// correction can, which raise the delays round by round exactly like
// distance-vector counting until the true route wins again. It returns the
// loop members, or nil when no eligible pair exists yet.
func (r *Router) InjectLoop(dest int) []int {
	// Candidate gateways A, preferring small current delay to dest so the
	// loop sits on a main path into the destination.
	type cand struct {
		a     int
		delay float64
	}
	var cands []cand
	for lm := range r.landmarks {
		if lm == dest {
			continue
		}
		if next, delay := r.landmarks[lm].table.NextHop(dest); next >= 0 {
			cands = append(cands, cand{a: lm, delay: delay})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].delay != cands[j].delay {
			return cands[i].delay < cands[j].delay
		}
		return cands[i].a < cands[j].a
	})
	for _, cd := range cands {
		a := cd.a
		ta := r.landmarks[a].table
		for _, c := range ta.Neighbors() {
			if c == dest || c == a {
				continue
			}
			tc := r.landmarks[c].table
			cNext, cDelay := tc.NextHop(dest)
			if cNext < 0 || tc.LinkDelay(a) >= routing.Infinite {
				continue
			}
			// The fake advertised delay must make the A<->C detour
			// strictly cheaper than both landmarks' current routes, or no
			// loop forms.
			tiny := cd.delay / 8
			if ta.LinkDelay(c)+tiny >= cd.delay || tc.LinkDelay(a)+tiny >= cDelay {
				continue
			}
			plant := func(at *routing.Table, from int) {
				fake := make([]float64, at.Size())
				for i := range fake {
					fake[i] = routing.Infinite
				}
				fake[dest] = tiny
				at.MergeVectorForced(from, fake, 1<<30)
			}
			plant(ta, c)
			plant(tc, a)
			if r.HasLoop(a, dest) {
				return []int{a, c}
			}
		}
	}
	return nil
}

// HasLoop reports whether following next hops from landmark from toward
// dest revisits a landmark (diagnostic used by tests and experiments).
func (r *Router) HasLoop(from, dest int) bool {
	seen := map[int]bool{}
	cur := from
	for cur != dest {
		if seen[cur] {
			return true
		}
		seen[cur] = true
		next, _ := r.landmarks[cur].table.NextHop(dest)
		if next < 0 {
			return false
		}
		cur = next
	}
	return false
}
