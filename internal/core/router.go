package core

import (
	"slices"
	"sort"

	"repro/internal/predict"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// carriedVector is a routing-table advertisement in transit inside a node,
// addressed to a specific neighbouring landmark (Section IV-C.2: "a
// landmark l_i chooses its node with the highest predicted probability of
// visiting l_j to forward its routing table to l_j").
type carriedVector struct {
	owner   int
	target  int       // landmark the advertisement is addressed to
	vec     []float64 // dense per-destination delays
	entries int       // reachable destinations (the transfer's cost in entries)
	seq     int
	forced  bool
	expiry  trace.Time
}

// correctionNotice tells landmark To to start forced re-advertisement for
// destination Dest (loop correction, Section IV-E.2).
type correctionNotice struct {
	To     int
	Dest   int
	Expiry trace.Time
}

// nodeState is DTN-FLOW's per-node bookkeeping.
type nodeState struct {
	pred      *predict.Markov
	acc       *predict.AccuracyTracker
	predicted int     // predicted next landmark; -1 unknown
	predFrom  int     // landmark where the prediction was made; -1 none
	predProb  float64 // transit probability p_t of predicted; 0 when unknown
	accVal    float64 // cached acc.Value(): read per present node per pass

	vectors []carriedVector
	// reportsShare is the pending-set snapshot taken at the last
	// departure, shared read-only with the landmark and every other node
	// that departed in the same unit.
	reportsShare []routing.BandwidthReport
	notices      []correctionNotice

	// stay-time statistics for dead-end detection. stay is dense per
	// landmark and allocated only when dead-end prevention, its sole
	// reader, is on; sum and count share a struct so a departure touches
	// one cache line.
	stay      []stayStat
	totalSum  trace.Time
	totalCnt  int
	deadEnded bool // dead end declared during the current visit
}

// stayStat accumulates one node's stay time at one landmark.
type stayStat struct {
	sum trace.Time
	cnt int64
}

// landmarkState is DTN-FLOW's per-landmark bookkeeping.
type landmarkState struct {
	table    *routing.Table
	bw       *routing.BandwidthTable
	arrivals *routing.ArrivalCounter
	// version increases when the routing table materially changes (next
	// hops differ at a time-unit boundary); it tags advertised vectors so
	// receivers can discard stale copies and gates re-advertisement.
	version    int
	lastHops   []int
	lastDelays []float64
	// changedAt is when the table last materially changed; the table is
	// advertised through every departing node for one advertising window
	// after a change, then goes quiet (the maintenance-cost saving the
	// paper derives from Fig. 8's stability result).
	changedAt trace.Time
	// pending holds the latest bandwidth report per neighbour awaiting
	// transport back to that neighbour (dense per landmark; hasPending
	// marks the populated entries, pendingList keeps them in index order
	// so departures iterate the populated set without a dense scan).
	pending     []routing.BandwidthReport
	hasPending  []bool
	pendingList []int
	// reportsShared is the carried copy of the pending set handed to
	// departing nodes; like advVec it is shared between all nodes departing
	// between two pending-set changes (readers never mutate it) and
	// replaced — never rewritten — when the set moves on (reportsStale).
	reportsShared []routing.BandwidthReport
	reportsStale  bool
	// advVec is the advertisement copy handed to departing nodes; it is
	// shared between all nodes carrying the same table state (receivers
	// copy on merge and never mutate it) and replaced — never rewritten —
	// when the table's vector changes. advGen is the table generation
	// advVec was built against: an unchanged generation proves the vector
	// unchanged, skipping the per-departure element compare.
	advVec []float64
	advGen uint64
	// notices holds outstanding loop-correction notices to be spread.
	notices []correctionNotice
	// forcedUntil, per destination, keeps forced re-advertisement active.
	forcedUntil map[int]trace.Time
	// Load balancing: packets assigned to / sent through each outgoing
	// link this unit, and their EWMA rates — dense per landmark, so the
	// per-unit fold is one pass over the indices with no key collection.
	lbAssigned []float64
	lbSent     []float64
	lbInRate   []float64
	lbOutRate  []float64

	// Reusable scratch for per-unit and per-departure bookkeeping.
	nbrScratch []int
	hopScratch []int
}

// Router is the DTN-FLOW router. Create with New; it implements
// sim.Router.
type Router struct {
	cfg  Config
	ctx  *sim.Context
	name string

	nodes     []*nodeState
	landmarks []*landmarkState
	unitSeq   int

	// node-routing mode: per node, its most frequented landmarks and the
	// visit tallies behind them.
	freq       [][]int
	freqCounts []map[int]int

	// Reusable scratch state for the forwarding hot path (forward.go).
	// One router serves one engine, so the scratch is race-free; sweeps
	// parallelise across engines, each with its own router.
	reachStamp    []int // per landmark; == reachEpoch when reachable this pass
	directStamp   []int // per landmark; == reachEpoch when some present node predicts it
	reachEpoch    int
	pktScratch    []*sim.Packet
	candScratch   []cand
	eligScratch   []elig
	carrierBkt    [][]carrierEnt // per target; valid when reachStamp matches
	targetScratch []int          // targets stamped by the current pass
	cycle         cycleState     // schedule's cycle fast-forward (cycle.go)

	// UnitHook, when set, runs after each time-unit boundary is
	// processed; experiments use it to snapshot tables (Fig. 8).
	UnitHook func(seq int)
}

var _ sim.Router = (*Router)(nil)

// New returns a DTN-FLOW router with the given configuration.
func New(cfg Config) *Router {
	if cfg.Order < 1 {
		cfg.Order = 1
	}
	// ρ outside (0, 1] falls back to the paper's 0.5, once, for both of
	// its readers: the bandwidth EWMA and the load-balancing rate fold.
	if cfg.Rho <= 0 || cfg.Rho > 1 {
		cfg.Rho = 0.5
	}
	name := "DTN-FLOW"
	return &Router{cfg: cfg, name: name}
}

// Name implements sim.Router.
func (r *Router) Name() string { return r.name }

// Init implements sim.Router.
func (r *Router) Init(ctx *sim.Context) {
	r.ctx = ctx
	nL := ctx.NumLandmarks()
	r.nodes = make([]*nodeState, len(ctx.Nodes))
	for i := range r.nodes {
		acc := predict.NewAccuracyTracker()
		ns := &nodeState{
			pred:      predict.NewMarkov(r.cfg.Order),
			acc:       acc,
			predicted: -1,
			predFrom:  -1,
			accVal:    acc.Value(),
		}
		if r.cfg.DeadEnd {
			ns.stay = make([]stayStat, nL)
		}
		r.nodes[i] = ns
	}
	r.landmarks = make([]*landmarkState, nL)
	for i := range r.landmarks {
		r.landmarks[i] = &landmarkState{
			table:       routing.NewTable(i, nL),
			bw:          routing.NewBandwidthTable(r.cfg.Rho, nL),
			arrivals:    routing.NewArrivalCounter(nL),
			pending:     make([]routing.BandwidthReport, nL),
			hasPending:  make([]bool, nL),
			version:     1,
			forcedUntil: map[int]trace.Time{},
			lbAssigned:  make([]float64, nL),
			lbSent:      make([]float64, nL),
			lbInRate:    make([]float64, nL),
			lbOutRate:   make([]float64, nL),
		}
	}
	r.freq = make([][]int, len(ctx.Nodes))
	r.reachStamp = make([]int, nL)
	r.directStamp = make([]int, nL)
	r.carrierBkt = make([][]carrierEnt, nL)
	r.reachEpoch = 0
}

// Table returns landmark lm's routing table (inspection).
func (r *Router) Table(lm int) *routing.Table { return r.landmarks[lm].table }

// Bandwidth returns landmark lm's bandwidth estimate for its outgoing link
// to nbr (inspection).
func (r *Router) Bandwidth(lm, nbr int) float64 { return r.landmarks[lm].bw.Bandwidth(nbr) }

// Accuracy returns node n's current prediction-accuracy estimate p_a.
func (r *Router) Accuracy(n int) float64 { return r.nodes[n].acc.Value() }

// OnGenerate implements sim.Router: a new packet appeared at its source
// landmark's station; try to forward immediately.
func (r *Router) OnGenerate(ctx *sim.Context, p *sim.Packet) {
	if r.cfg.NodeRouting && p.DstNode >= 0 {
		r.assignNodeDest(p)
	}
	if r.cfg.LoopFix {
		appendPath(p, p.Src)
	}
	ls := r.landmarks[p.Src]
	r.recordAssignment(ls, p)
	r.forwardPass(ctx, p.Src, nil)
}

// OnContact implements sim.Router.
func (r *Router) OnContact(ctx *sim.Context, c *sim.Contact) {
	// Steps 1–5: measurement, prediction and control-state delivery.
	r.contactPrologue(ctx, c)

	// 6. Scheduled communication: uploads and forwarding.
	r.schedule(ctx, c)

	// Step 7: dead-end timer.
	r.contactEpilogue(ctx, c)
}

// contactPrologue runs steps 1–5 of contact processing — everything before
// the communication schedule.
func (r *Router) contactPrologue(ctx *sim.Context, c *sim.Contact) {
	n := c.Node
	ns := r.nodes[n.ID]
	lm := c.Landmark
	ls := r.landmarks[lm]

	// 1. Bandwidth measurement: the node reports its previous landmark.
	if n.Prev >= 0 && n.Prev != lm {
		ls.arrivals.Record(n.Prev)
	}

	// 2. Prediction-accuracy bookkeeping.
	if ns.predicted >= 0 && ns.predFrom >= 0 && ns.predFrom != lm {
		hit := ns.predicted == lm
		ns.acc.Record(hit)
		ns.accVal = ns.acc.Value()
		ctx.Probe.Predict(ctx.Now(), n.ID, ns.predicted, lm, hit)
	}

	// 3. Deliver carried control state.
	r.deliverControl(ctx, ns, lm)

	// 4. The node observes its visit and predicts its next transit,
	// informing the landmark (step 5 of the routing algorithm).
	ns.pred.Observe(lm)
	if next, p, ok := ns.pred.Predict(); ok && next != lm {
		// p is the transit probability p_t of next. It only changes on
		// Observe, so the forwarding pass reads this cached copy.
		ns.predicted, ns.predFrom, ns.predProb = next, lm, p
	} else {
		ns.predicted, ns.predFrom, ns.predProb = -1, lm, 0
	}
	ns.deadEnded = false

	// 5. Node-routing mode: deliver packets waiting for this node and
	// refresh its frequented-landmark report.
	if r.cfg.NodeRouting {
		r.nodeRoutingOnContact(ctx, n, lm)
	}
}

// contactEpilogue runs step 7 — dead-end prevention (Section IV-E.1).
func (r *Router) contactEpilogue(ctx *sim.Context, c *sim.Contact) {
	if r.cfg.DeadEnd {
		r.armDeadEnd(ctx, c)
	}
}

// OnDepart implements sim.Router: record stay statistics and hand the
// departing node the landmark's outgoing control state.
func (r *Router) OnDepart(ctx *sim.Context, n *sim.Node, lm int) {
	ns := r.nodes[n.ID]
	ls := r.landmarks[lm]
	stay := n.VisitEnd - n.VisitStart
	if ns.stay != nil {
		st := &ns.stay[lm]
		st.sum += stay
		st.cnt++
	}
	ns.totalSum += stay
	ns.totalCnt++

	// Routing-table advertisement travels in mobile nodes (Section
	// IV-C.2). While the table is changing (it materially changed within
	// the last advertising window) it rides with every departing node and
	// is merged at whatever landmark the node reaches next; once the
	// routes stabilise, advertising stops — the maintenance-cost saving
	// the paper derives from Fig. 8's stability result. Loop correction
	// forces advertising regardless.
	forced := false
	now := ctx.Now()
	if len(ls.forcedUntil) > 0 {
		for d, until := range ls.forcedUntil {
			if now < until {
				forced = true
			} else {
				delete(ls.forcedUntil, d)
			}
		}
	}
	if forced || now < ls.changedAt+ctx.Cfg.Unit {
		// All departures between two table changes carry identical vector
		// contents, so they share one copy (receivers copy on merge; the
		// copy is replaced, never rewritten, when the table moves on). The
		// table generation proves the copy current without comparing it.
		vec := ls.table.ToVector()
		if g := ls.table.Gen(); ls.advVec == nil || g != ls.advGen {
			if !slices.Equal(ls.advVec, vec) {
				ls.advVec = append([]float64(nil), vec...)
			}
			ls.advGen = g
		}
		ns.vectors = append(ns.vectors, carriedVector{
			owner:   lm,
			target:  -1, // deliver at the next landmark reached
			vec:     ls.advVec,
			entries: ls.table.Len(),
			seq:     ls.version,
			forced:  forced,
			expiry:  now + 2*ctx.Cfg.Unit,
		})
		if len(ns.vectors) > 4 {
			ns.vectors = ns.vectors[len(ns.vectors)-4:]
		}
	}

	// Bandwidth reports travel inside departing nodes back to the
	// landmarks they concern (Section IV-C.1). The paper hands a report
	// only to nodes predicted to transit to its addressee; nodes whose
	// transits are unpredictable would then never deliver reports to
	// unpopular landmarks, so every departing node carries the full
	// pending set (reports are single entries) and delivers whichever
	// matches the landmark it actually reaches.
	ns.reportsShare = ls.sharedReports()

	// Loop-correction notices spread through every departing node.
	ns.notices = ns.notices[:0]
	for _, nt := range ls.notices {
		if now < nt.Expiry {
			ns.notices = append(ns.notices, nt)
		}
	}
}

// OnTimeUnit implements sim.Router: roll bandwidth measurement, refresh
// link delays, fold load-balancing rates.
func (r *Router) OnTimeUnit(ctx *sim.Context, seq int) {
	r.unitSeq = seq + 1
	for lm, ls := range r.landmarks {
		ls.nbrScratch = ls.appendIncomingNeighbors(ls.nbrScratch[:0])
		for _, rep := range ls.arrivals.Roll(lm, seq, ls.nbrScratch) {
			ls.pending[rep.From] = rep
			ls.markPending(rep.From)
			ls.reportsStale = true
			// Until the reverse report arrives, estimate the outgoing
			// bandwidth from the incoming one under observation O3
			// (matching transit links are near-symmetric).
			if ls.bw.ApplySymmetric(rep.From, float64(rep.Count), rep.Seq) && !ls.bw.Reported(rep.From) {
				ls.table.SetLinkDelay(rep.From, routing.LinkDelay(ls.bw.Bandwidth(rep.From), ctx.Cfg.Unit))
			}
		}
		// Re-advertise when the routes materially changed this unit: a
		// next hop differs, or an advertised delay drifted by more than
		// half (staleness would mislead downstream HoldOnWorse and
		// feasibility decisions). Both comparisons run against retained
		// buffers that are only rewritten on change, so a stable unit
		// allocates nothing.
		ls.hopScratch = ls.table.AppendNextHops(ls.hopScratch[:0])
		delays := ls.table.ToVector()
		if !slices.Equal(ls.hopScratch, ls.lastHops) || delaysDrifted(delays, ls.lastDelays, 1.0) {
			if ctx.Probe.Enabled() {
				// Convergence delta: how many next hops moved and the
				// largest relative delay drift since the last advertised
				// state. Computed only when telemetry is on.
				ctx.Probe.Recompute(ctx.Now(), lm,
					countChangedHops(ls.lastHops, ls.hopScratch),
					maxRelativeDrift(ls.lastDelays, delays))
			}
			ls.lastHops = append(ls.lastHops[:0], ls.hopScratch...)
			ls.lastDelays = append(ls.lastDelays[:0], delays...)
			ls.version++
			ls.changedAt = ctx.Now()
		}
		// Housekeeping: drop expired correction notices.
		var keep []correctionNotice
		for _, nt := range ls.notices {
			if ctx.Now() < nt.Expiry {
				keep = append(keep, nt)
			}
		}
		ls.notices = keep
		// Fold load-balancing rates (EWMA with the same ρ as bandwidth).
		// The slices are dense, so folding every index is exact: links
		// untouched this unit fold ρ·0+(1−ρ)·rate, just as the sparse
		// key-union did for rate-only keys.
		rho := r.cfg.Rho
		for link := range ls.lbInRate {
			ls.lbInRate[link] = rho*ls.lbAssigned[link] + (1-rho)*ls.lbInRate[link]
			ls.lbOutRate[link] = rho*ls.lbSent[link] + (1-rho)*ls.lbOutRate[link]
		}
		clear(ls.lbAssigned)
		clear(ls.lbSent)
		if ck := ctx.Check; ck != nil {
			ck.Table(ctx.Now(), lm, ls.table)
		}
	}
	if r.UnitHook != nil {
		r.UnitHook(seq)
	}
}

// appendIncomingNeighbors appends the neighbours this landmark has ever
// produced a report for (so zero-count reports decay dead links) to dst,
// in index order. Callers pass a reusable scratch slice.
func (ls *landmarkState) appendIncomingNeighbors(dst []int) []int {
	return append(dst, ls.pendingList...)
}

// markPending records that a report for neighbour from is pending,
// inserting it into the sorted pendingList on first sight. The set only
// grows (reports are overwritten, never retired), so insertion is rare.
func (ls *landmarkState) markPending(from int) {
	if ls.hasPending[from] {
		return
	}
	ls.hasPending[from] = true
	i := sort.SearchInts(ls.pendingList, from)
	ls.pendingList = append(ls.pendingList, 0)
	copy(ls.pendingList[i+1:], ls.pendingList[i:])
	ls.pendingList[i] = from
}

// sharedReports returns the shared snapshot of the pending report set,
// rebuilding it only after the set changed — every departure between two
// unit boundaries hands out the same copy instead of materialising its
// own.
func (ls *landmarkState) sharedReports() []routing.BandwidthReport {
	if ls.reportsStale {
		ls.reportsStale = false
		if len(ls.pendingList) == 0 {
			ls.reportsShared = nil
		} else {
			s := make([]routing.BandwidthReport, 0, len(ls.pendingList))
			for _, from := range ls.pendingList {
				s = append(s, ls.pending[from])
			}
			ls.reportsShared = s
		}
	}
	return ls.reportsShared
}

// deliverControl applies the control payloads a node carries when it
// connects to landmark lm.
func (r *Router) deliverControl(ctx *sim.Context, ns *nodeState, lm int) {
	ls := r.landmarks[lm]
	if len(ns.vectors) > 0 {
		now := ctx.Now()
		keep := ns.vectors[:0]
		for _, v := range ns.vectors {
			switch {
			case (v.target == lm || v.target < 0) && v.owner != lm:
				if v.forced {
					ls.table.MergeVectorForced(v.owner, v.vec, v.seq)
				} else {
					ls.table.MergeVector(v.owner, v.vec, v.seq)
				}
				ctx.Metrics.Control(v.entries)
			case now < v.expiry:
				keep = append(keep, v)
			}
		}
		ns.vectors = keep
	}
	// The snapshot taken at the last departure is sorted by From with
	// unique entries (it mirrors pendingList), so the one report addressed
	// to this landmark — if any — is found by binary search instead of a
	// full scan.
	if sh := ns.reportsShare; len(sh) > 0 {
		i := sort.Search(len(sh), func(i int) bool { return sh[i].From >= lm })
		if i < len(sh) && sh[i].From == lm {
			r.applyReport(ctx, ls, sh[i])
		}
		// Undelivered snapshot entries are dropped, not carried on:
		// arrivals and departures strictly alternate per node (trace
		// visits are disjoint intervals), and the next departure rebuilds
		// the carried set before the next arrival could read a retained
		// copy — so keeping them is unobservable work.
		ns.reportsShare = nil
	}
	if len(ns.notices) > 0 {
		keep := ns.notices[:0]
		now := ctx.Now()
		for _, nt := range ns.notices {
			if now >= nt.Expiry {
				continue
			}
			if nt.To == lm {
				// Re-advertise for one loop period P (see startCorrection).
				if until := now + ctx.Cfg.Unit; until > ls.forcedUntil[nt.Dest] {
					ls.forcedUntil[nt.Dest] = until
				}
				ctx.Metrics.Control(1)
			} else {
				keep = append(keep, nt)
			}
		}
		ns.notices = keep
	}
}

// applyReport folds one bandwidth report addressed to this landmark into
// its bandwidth table and, when the estimate moved, its routing table.
func (r *Router) applyReport(ctx *sim.Context, ls *landmarkState, rep routing.BandwidthReport) {
	if ls.bw.Apply(rep.To, float64(rep.Count), rep.Seq) {
		ls.table.SetLinkDelay(rep.To, routing.LinkDelay(ls.bw.Bandwidth(rep.To), ctx.Cfg.Unit))
	}
	ctx.Metrics.Control(1)
}

// delaysDrifted reports whether any finite advertised delay moved by more
// than frac relative to the last advertised value (or changed
// finite/infinite state).
func delaysDrifted(cur, last []float64, frac float64) bool {
	if len(cur) != len(last) {
		return true
	}
	for i := range cur {
		a, b := last[i], cur[i]
		finA, finB := a < routing.Infinite, b < routing.Infinite
		if finA != finB {
			return true
		}
		if !finA {
			continue
		}
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		if diff > frac*a {
			return true
		}
	}
	return false
}

// countChangedHops returns how many next-hop entries differ between the
// last advertised set and the current one (a fresh table counts every
// entry). Telemetry-only; never on the disabled path.
func countChangedHops(last, cur []int) int {
	if len(last) != len(cur) {
		return len(cur)
	}
	n := 0
	for i := range cur {
		if cur[i] != last[i] {
			n++
		}
	}
	return n
}

// maxRelativeDrift returns the largest |cur-last|/last among entries
// finite in both vectors (finite/infinite flips contribute 1).
// Telemetry-only; never on the disabled path.
func maxRelativeDrift(last, cur []float64) float64 {
	if len(last) != len(cur) {
		return 1
	}
	max := 0.0
	for i := range cur {
		a, b := last[i], cur[i]
		finA, finB := a < routing.Infinite, b < routing.Infinite
		switch {
		case finA != finB:
			if max < 1 {
				max = 1
			}
		case finA && a > 0:
			d := (b - a) / a
			if d < 0 {
				d = -d
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}
