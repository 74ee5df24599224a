package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Plan/commit split of contact processing (sim.ContactPlanner), consumed by
// the sharded engine's parallel-apply pipeline (sim/parallel.go).
//
// PlanContact is a side-effect-free twin of OnContact's step 6 — the
// schedule/uploadBatch/forwardPass loop of forward.go — run against shadow
// state: copies of the station and node queues, per-carrier used-byte
// deltas, a local budget, and previewed post-prologue values for the
// arriving node (PredictAfter / ValueAfter stand in for the Observe /
// Record the prologue will commit). The twin's decisions are recorded as a
// transfer list; CommitContact runs the real prologue, validates that it
// left the routing table's generation unchanged, and replays the list
// through the real transfer primitives — so metrics, telemetry and
// invariant checking observe exactly the operations inline execution would
// have performed, in the same order.
//
// The twin is exact only for configurations whose step-6 decisions are a
// function of the shadowed state: node routing, loop correction and load
// balancing feed schedule-time mutations back into the decision loop
// (rendezvous delivery, forced re-advertisement, assignment rates), so
// PlanPrepare declines those outright, as it does contacts where a TTL
// expiry could fire (the sweep would change the queues under the plan).

// planOp is one planned transfer: an upload when carrier is nil, otherwise
// a download to carrier with the routed target and expected delay that
// forwardPass would stamp into the packet.
type planOp struct {
	p       *sim.Packet
	carrier *sim.Node
	target  int
	exp     float64
}

// planCarrier is one presence-bucket entry of the twin: the candidate
// carrier, its overall transit probability, and its index into the plan's
// per-carrier byte-delta table.
type planCarrier struct {
	n  *sim.Node
	po float64
	di int
}

func cmpPlanCarrier(a, b planCarrier) int {
	if a.po != b.po {
		if a.po > b.po {
			return -1
		}
		return 1
	}
	return a.n.ID - b.n.ID
}

// planCand mirrors cand with the packet's slot in the shadow station queue.
type planCand struct {
	p        *sim.Packet
	si       int
	target   int
	exp      float64
	feasible bool
}

func cmpPlanCand(a, b planCand) int {
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

// planElig mirrors elig with the packet's slot in the shadow node queue.
type planElig struct {
	p        *sim.Packet
	si       int
	feasible bool
}

func cmpPlanElig(a, b planElig) int {
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

// shadowEnt overrides NextHop/ExpDelay for a packet the plan downloaded to
// the contact node: a later upload-eligibility check must read the planned
// values, not the (not yet committed) packet fields.
type shadowEnt struct {
	p   *sim.Packet
	hop int
	exp float64
}

// contactPlan is one plannable arrival's precomputed forwarding plan plus
// the planner's reusable scratch (plans are pooled; see getPlan).
type contactPlan struct {
	gen                uint64 // table generation the plan's reads are valid for
	ops                []planOp
	noRoute, noCarrier int64 // Debug deltas from the planned passes

	// Shadow state.
	present []*sim.Node
	delta   []int64       // per present node: planned used-byte change
	stQ     []*sim.Packet // station queue; nil slots are tombstones
	nQ      []*sim.Packet // contact-node queue; nil slots are tombstones
	stLive  int
	nLive   int
	shadow  []shadowEnt
	budget  int
	nn      int

	// Presence classification (built once per plan; predictions cannot
	// change inside a contact, so every forward pass sees the same buckets).
	reach   []int
	direct  []int
	epoch   int
	bkt     [][]planCarrier
	targets []int

	// Sort scratch.
	cands []planCand
	eligs []planElig

	// Arriving-node previews and contact parameters.
	node       *sim.Node
	nodeDi     int
	lm         int
	now        trace.Time
	unit       trace.Time
	aPredicted int
	aPredProb  float64
	aAccVal    float64
}

var _ sim.ContactPlanner = (*Router)(nil)

func (r *Router) getPlan(nL int) *contactPlan {
	if v := r.planPool.Get(); v != nil {
		if pl := v.(*contactPlan); len(pl.reach) == nL {
			return pl
		}
	}
	return &contactPlan{
		reach:  make([]int, nL),
		direct: make([]int, nL),
		bkt:    make([][]planCarrier, nL),
	}
}

func (r *Router) putPlan(pl *contactPlan) {
	pl.node = nil
	pl.present = pl.present[:0]
	pl.stQ = pl.stQ[:0]
	pl.nQ = pl.nQ[:0]
	pl.ops = pl.ops[:0]
	pl.shadow = pl.shadow[:0]
	r.planPool.Put(pl)
}

// PlanPrepare implements sim.ContactPlanner: gate out configurations the
// twin cannot predict, then flush the landmark table's pending
// recomputation and compact the involved buffers so the concurrent
// PlanContact calls that follow are pure reads.
func (r *Router) PlanPrepare(ctx *sim.Context, c *sim.Contact) bool {
	if r.cfg.NodeRouting || r.cfg.LoopFix || r.cfg.LoadBalance {
		return false
	}
	n := c.Node
	st := ctx.Stations[c.Landmark]
	if n.Buffer.ExpiryDue(c.Start) || st.Buffer.ExpiryDue(c.Start) {
		return false
	}
	// A finite station could overflow during upload replay (DropNoRoom has
	// engine-side effects the twin does not model); plan only when every
	// byte the node holds would still fit.
	if st.Buffer.Capacity > 0 && !st.Buffer.Fits(n.Buffer.Used()) {
		return false
	}
	r.landmarks[c.Landmark].table.Sync()
	st.Buffer.Packets()
	n.Buffer.Packets()
	return true
}

// PlanContact implements sim.ContactPlanner: a pure read of router and
// engine state (after PlanPrepare) producing the contact's transfer list.
func (r *Router) PlanContact(ctx *sim.Context, c *sim.Contact) any {
	n := c.Node
	ns := r.nodes[n.ID]
	lm := c.Landmark
	ls := r.landmarks[lm]

	// Preview the prologue's effect on the arriving node: its accuracy
	// update (step 2) and its post-observation prediction (step 4).
	next, prob, okP, dense := ns.pred.PredictAfter(lm)
	if !dense {
		return nil
	}
	pl := r.getPlan(ctx.NumLandmarks())
	pl.node, pl.lm, pl.now, pl.unit = n, lm, c.Start, ctx.Cfg.Unit
	pl.gen = ls.table.Gen()
	pl.aAccVal = ns.accVal
	if ns.predicted >= 0 && ns.predFrom >= 0 && ns.predFrom != lm {
		pl.aAccVal = ns.acc.ValueAfter(ns.predicted == lm)
	}
	if okP && next != lm {
		pl.aPredicted, pl.aPredProb = next, prob
	} else {
		pl.aPredicted, pl.aPredProb = -1, 0
	}

	// Shadow state: presence view with the arriving node inserted (the
	// engine adds it before OnContact), queue copies, budget.
	st := ctx.Stations[lm]
	pl.present = append(pl.present[:0], ctx.NodesAt(lm)...)
	i := sort.Search(len(pl.present), func(i int) bool { return pl.present[i].ID >= n.ID })
	if i >= len(pl.present) || pl.present[i].ID != n.ID {
		pl.present = slices.Insert(pl.present, i, n)
	}
	pl.nodeDi = i
	pl.delta = pl.delta[:0]
	for range pl.present {
		pl.delta = append(pl.delta, 0)
	}
	pl.stQ = append(pl.stQ[:0], st.Buffer.Packets()...)
	pl.nQ = append(pl.nQ[:0], n.Buffer.Packets()...)
	pl.stLive, pl.nLive = len(pl.stQ), len(pl.nQ)
	pl.budget = c.Budget
	pl.ops = pl.ops[:0]
	pl.shadow = pl.shadow[:0]
	pl.noRoute, pl.noCarrier = 0, 0
	nn := 0
	for _, m := range pl.present {
		nn += m.Buffer.Len()
	}
	pl.nn = nn

	r.planBuckets(pl)
	r.planSchedule(pl)
	return pl
}

// planBuckets classifies the presence view once: per-target carrier
// buckets, reachability and direct-delivery stamps — forwardPass's
// presence scan, with the arriving node represented by its previews.
func (r *Router) planBuckets(pl *contactPlan) {
	pl.epoch++
	epoch := pl.epoch
	targets := pl.targets[:0]
	for di, m := range pl.present {
		var pred int
		var prob, acc float64
		var dead bool
		if m == pl.node {
			pred, prob, acc, dead = pl.aPredicted, pl.aPredProb, pl.aAccVal, false
		} else {
			ms := r.nodes[m.ID]
			pred, prob, acc, dead = ms.predicted, ms.predProb, ms.accVal, ms.deadEnded
		}
		if pred < 0 {
			continue
		}
		pl.direct[pred] = epoch
		if dead {
			continue
		}
		if pl.reach[pred] != epoch {
			pl.reach[pred] = epoch
			pl.bkt[pred] = pl.bkt[pred][:0]
			targets = append(targets, pred)
		}
		if prob > 0 {
			po := prob
			if r.cfg.UseAccuracy {
				po *= acc
			}
			pl.bkt[pred] = append(pl.bkt[pred], planCarrier{n: m, po: po, di: di})
		}
	}
	pl.targets = targets
	for _, t := range targets {
		if len(pl.bkt[t]) > 1 {
			slices.SortFunc(pl.bkt[t], cmpPlanCarrier)
		}
	}
}

// shadowOf returns the packet's routing annotations as the plan has set
// them (downloads to the contact node override the committed fields).
func (pl *contactPlan) shadowOf(p *sim.Packet) (hop int, exp float64) {
	for i := len(pl.shadow) - 1; i >= 0; i-- {
		if pl.shadow[i].p == p {
			return pl.shadow[i].hop, pl.shadow[i].exp
		}
	}
	return p.NextHop, p.ExpDelay
}

// planSchedule mirrors schedule: the upload/forward mode loop over shadow
// populations.
func (r *Router) planSchedule(pl *contactPlan) {
	if pl.stLive == 0 && pl.nLive == 0 {
		return
	}
	const (
		modeUpload = iota
		modeForward
	)
	mode := modeUpload
	for pl.budget > 0 {
		nl := pl.stLive
		switch {
		case pl.nn == 0 && nl == 0:
			return
		case pl.nn == 0:
			mode = modeForward
		default:
			ratio := float64(nl) / float64(pl.nn)
			if ratio >= r.cfg.RUp {
				mode = modeForward
			} else if ratio <= r.cfg.RDown {
				mode = modeUpload
			}
		}
		progressed := false
		if mode == modeUpload {
			before := pl.nLive
			progressed = r.planUploadBatch(pl) > 0
			pl.nn -= before - pl.nLive
			if !progressed {
				mode = modeForward
				sent := r.planForwardPass(pl)
				pl.nn += sent
				progressed = sent > 0
			}
		} else {
			sent := r.planForwardPass(pl)
			pl.nn += sent
			progressed = sent > 0
			if !progressed {
				mode = modeUpload
				before := pl.nLive
				progressed = r.planUploadBatch(pl) > 0
				pl.nn -= before - pl.nLive
			}
		}
		if !progressed {
			return
		}
	}
}

// planUploadBatch mirrors uploadBatch over the shadow node queue. The
// arriving node's dead-end flag is false after the prologue, expiry cannot
// fire (PlanPrepare), and the station cannot overflow — so an upload fails
// only on budget, exactly as the twin models.
func (r *Router) planUploadBatch(pl *contactPlan) int {
	lm := pl.lm
	tbl := r.landmarks[lm].table
	el := pl.eligs[:0]
	for si, p := range pl.nQ {
		if p == nil {
			continue
		}
		hop, exp := pl.shadowOf(p)
		ok := p.Dst == lm || hop == lm || !r.cfg.HoldOnWorse
		if !ok {
			ok = tbl.Delay(p.Dst) < 0.9*exp
		}
		if ok {
			el = append(el, planElig{p: p, si: si, feasible: exp < float64(p.Remaining(pl.now))})
		}
	}
	pl.eligs = el
	slices.SortFunc(el, cmpPlanElig)
	max := r.cfg.NMax
	if max <= 0 {
		max = len(el)
	}
	up := 0
	for _, e := range el {
		if up >= max {
			break
		}
		if pl.budget <= 0 {
			break // Upload fails with the contact budget exhausted
		}
		pl.budget--
		pl.nQ[e.si] = nil
		pl.nLive--
		pl.delta[pl.nodeDi] -= e.p.Size
		pl.ops = append(pl.ops, planOp{p: e.p})
		up++
		if !(e.p.Dst == lm && e.p.DstNode < 0) {
			// Not delivered on upload: the packet joins the station queue
			// and becomes a forwarding candidate.
			pl.stQ = append(pl.stQ, e.p)
			pl.stLive++
		}
	}
	return up
}

// planRoute mirrors route for the plan path (load balancing is gated off
// by PlanPrepare, so the backup branch never applies).
func (r *Router) planRoute(pl *contactPlan, tbl *routing.Table, p *sim.Packet) (target int, exp float64) {
	if r.cfg.DirectDelivery && p.Dst != pl.lm && pl.direct[p.Dst] == pl.epoch {
		exp = tbl.Delay(p.Dst)
		if exp >= routing.Infinite {
			exp = float64(pl.unit)
		}
		return p.Dst, exp
	}
	return tbl.NextHop(p.Dst)
}

// planForwardPass mirrors forwardPass over the shadow station queue, with
// carrier capacity evaluated against the planned byte deltas.
func (r *Router) planForwardPass(pl *contactPlan) int {
	if pl.stLive == 0 {
		return 0
	}
	if len(pl.targets) == 0 {
		return 0 // no reachable target among the present carriers
	}
	lm := pl.lm
	tbl := r.landmarks[lm].table
	cands := pl.cands[:0]
	for si, p := range pl.stQ {
		if p == nil || p.Dst == lm {
			continue
		}
		target, exp := r.planRoute(pl, tbl, p)
		if target < 0 {
			pl.noRoute++
			continue
		}
		if pl.reach[target] != pl.epoch {
			pl.noCarrier++
			continue
		}
		cands = append(cands, planCand{p: p, si: si, target: target, exp: exp, feasible: exp < float64(p.Remaining(pl.now))})
	}
	pl.cands = cands
	slices.SortFunc(cands, cmpPlanCand)
	sent := 0
	for _, cd := range cands {
		var carrier *sim.Node
		di := -1
		for _, ce := range pl.bkt[cd.target] {
			if ce.n.Buffer.Fits(cd.p.Size + pl.delta[ce.di]) {
				carrier, di = ce.n, ce.di
				break
			}
		}
		if carrier == nil {
			pl.noCarrier++
			continue
		}
		if carrier == pl.node {
			// Downloads to the contact node charge its budget; transfers to
			// other present carriers are engine-internal (nil contact).
			if pl.budget <= 0 {
				continue
			}
			pl.budget--
		}
		pl.stQ[cd.si] = nil
		pl.stLive--
		pl.delta[di] += cd.p.Size
		if carrier == pl.node {
			pl.nQ = append(pl.nQ, cd.p)
			pl.nLive++
			pl.shadow = append(pl.shadow, shadowEnt{p: cd.p, hop: cd.target, exp: cd.exp})
		}
		pl.ops = append(pl.ops, planOp{p: cd.p, carrier: carrier, target: cd.target, exp: cd.exp})
		sent++
	}
	return sent
}

// CommitContact implements sim.ContactPlanner: run the prologue inline,
// validate the plan against the table generation, and replay or fall back.
func (r *Router) CommitContact(ctx *sim.Context, c *sim.Contact, plan any) bool {
	pl := plan.(*contactPlan)
	n := c.Node
	lm := c.Landmark
	ls := r.landmarks[lm]

	r.contactPrologue(ctx, c)

	// The prologue's control-state delivery may have merged carried vectors
	// or bandwidth reports into the landmark's table; any routed-state
	// change invalidates the plan's route and eligibility reads.
	if ls.table.Sync() != pl.gen {
		r.putPlan(pl)
		r.schedule(ctx, c)
		r.contactEpilogue(ctx, c)
		return false
	}

	// Replay the planned transfers through the real primitives, in plan
	// order, with the same per-transfer bookkeeping forwardPass and
	// uploadBatch perform. A failing primitive here means the validation
	// layers let a stale plan through — a bug, not a runtime condition.
	st := ctx.Stations[lm]
	now := ctx.Now()
	for i := range pl.ops {
		op := &pl.ops[i]
		if op.carrier == nil {
			if !ctx.Upload(c, n, op.p) {
				panic(fmt.Sprintf("core: planned upload of %v failed at landmark %d", op.p, lm))
			}
			if !op.p.Done() {
				r.stationReceive(ctx, lm, op.p)
			}
		} else {
			var cc *sim.Contact
			if op.carrier == n {
				cc = c
			}
			if !ctx.Download(cc, st, op.carrier, op.p) {
				panic(fmt.Sprintf("core: planned download of %v to node %d failed at landmark %d", op.p, op.carrier.ID, lm))
			}
			ctx.Probe.Assigned(now, op.p.ID, lm, op.target)
			op.p.NextHop = op.target
			op.p.ExpDelay = op.exp
			ls.lbSent[op.target]++
			r.Debug.Forwarded++
			if op.target == op.p.Dst {
				r.Debug.DirectDeliv++
			}
		}
	}
	r.Debug.NoRoute += pl.noRoute
	r.Debug.NoCarrier += pl.noCarrier
	r.putPlan(pl)
	r.contactEpilogue(ctx, c)
	return true
}

// DiscardPlan implements sim.ContactPlanner.
func (r *Router) DiscardPlan(plan any) {
	r.putPlan(plan.(*contactPlan))
}
