// Regret: joining a live telemetry recording against the oracle. The
// per-packet join compares each packet's achieved fate with its relaxed
// earliest-arrival bound (regret = achieved delivery time minus the
// bound, always >= 0 — a negative value would falsify the bound and the
// join reports it as a MethodOnly violation). The per-landmark join
// replays every recorded forwarding decision: from the decision's state
// (landmark, time) it computes the optimal continuation and the best
// continuation through the hop the router actually chose, scoring
// agreement, top-k coverage (did the router at least consider the
// optimal hop?), fatal decisions (delivery was still possible, the
// chosen hop made it impossible), and mean decision regret.

package oracle

import (
	"slices"
	"sort"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// PacketRegret is one packet's oracle-vs-achieved comparison.
type PacketRegret struct {
	ID       int
	Src, Dst int
	Created  trace.Time

	OracleDeliverable bool
	OracleEAT         trace.Time // valid when OracleDeliverable

	Delivered bool
	Achieved  trace.Time // delivery time (valid when Delivered)

	// Regret = Achieved - OracleEAT, valid when both delivered;
	// non-negative unless the relaxed bound is violated.
	Regret trace.Time
}

// LandmarkRegret aggregates decision quality at one landmark.
type LandmarkRegret struct {
	Landmark  int
	Decisions int // chosen (rank-0) decisions recorded here
	// Agree counts decisions whose chosen hop equals the oracle's first
	// hop from the same state; TopK counts decisions where the oracle's
	// first hop appears among the recorded candidates (chosen or
	// alternative).
	Agree int
	TopK  int
	// Fatal counts decisions where delivery was still achievable from
	// this state but became impossible through the chosen hop.
	Fatal int
	// regretSum/scored accumulate (best-via-chosen - optimal) arrival
	// deltas over decisions where both continuations deliver in time.
	regretSum float64
	scored    int
}

// MeanRegret is the average extra delay (seconds) the chosen hop cost
// versus the optimal hop, over decisions where both still deliver.
func (l *LandmarkRegret) MeanRegret() float64 {
	if l.scored == 0 {
		return 0
	}
	return l.regretSum / float64(l.scored)
}

// RegretReport is the full join of one recording against the oracle.
type RegretReport struct {
	// Packet counts: Total packets reconstructed from the recording,
	// how many the oracle can deliver, how many the method delivered,
	// and the overlap splits.
	Total             int
	OracleDeliverable int
	MethodDelivered   int
	Both              int // delivered by both (regret is defined here)
	Missed            int // oracle-deliverable, method failed
	// MethodOnly counts packets the method delivered that the oracle
	// calls undeliverable. The relaxed bound proves this is impossible,
	// so any nonzero value is a physics divergence worth a bug report.
	MethodOnly int

	MeanRegret float64 // seconds, over Both
	MaxRegret  trace.Time

	Packets   []PacketRegret
	Landmarks []LandmarkRegret // sorted by landmark id; only landmarks with decisions
	Decisions int              // total chosen decisions replayed
	// Skipped counts chosen decisions that could not be replayed: the
	// packet's generation event was lost to ring wrap, or the decision's
	// landmark, next hop or destination lies outside the trace.
	Skipped int
}

// Regret joins a telemetry recording against the oracle's relaxed bound
// on the given (already perturbed, if the run was disrupted) trace.
// Packets whose generation event fell out of a wrapped ring are skipped.
func Regret(log *telemetry.Log, tr *trace.Trace, cfg Config) *RegretReport {
	ttl := log.Meta.TTL
	pkts := make([]Packet, 0, 1024)
	seen := make(map[int32]bool)
	for _, ev := range log.Events {
		if ev.Kind != telemetry.EvGenerated || seen[ev.Pkt] {
			continue
		}
		seen[ev.Pkt] = true
		exp := maxTime
		if ttl > 0 {
			exp = ev.T + ttl
		}
		pkts = append(pkts, Packet{
			ID:      int(ev.Pkt),
			Src:     int(ev.A),
			Dst:     int(ev.B),
			Created: ev.T,
			Expiry:  exp,
			Size:    log.Meta.PacketSize,
		})
	}

	g := Build(tr, cfg, cfg.Workers)
	cfg.SkipCommitted = true
	res := Solve(g, cfg, pkts)

	rep := &RegretReport{Total: len(pkts)}
	delivered := make(map[int32]trace.Time, len(pkts))
	for _, ev := range log.Events {
		if ev.Kind == telemetry.EvDelivered {
			delivered[ev.Pkt] = ev.T
		}
	}

	byID := make(map[int]*PacketRegret, len(pkts))
	rep.Packets = make([]PacketRegret, len(pkts))
	var regretSum float64
	for i := range res.Packets {
		or := &res.Packets[i]
		pr := &rep.Packets[i]
		*pr = PacketRegret{ID: or.ID, Src: or.Src, Dst: or.Dst, Created: or.Created}
		byID[or.ID] = pr
		if or.Fate == FateDelivered {
			pr.OracleDeliverable = true
			pr.OracleEAT = or.EAT
			rep.OracleDeliverable++
		}
		if t, ok := delivered[int32(or.ID)]; ok {
			pr.Delivered = true
			pr.Achieved = t
			rep.MethodDelivered++
		}
		switch {
		case pr.Delivered && pr.OracleDeliverable:
			rep.Both++
			pr.Regret = pr.Achieved - pr.OracleEAT
			regretSum += float64(pr.Regret)
			if pr.Regret > rep.MaxRegret {
				rep.MaxRegret = pr.Regret
			}
		case pr.OracleDeliverable:
			rep.Missed++
		case pr.Delivered:
			rep.MethodOnly++
		}
	}
	if rep.Both > 0 {
		rep.MeanRegret = regretSum / float64(rep.Both)
	}

	rep.replayDecisions(log, g, byID)
	return rep
}

// optState memoizes the unconstrained earliest-arrival search from one
// (landmark, time) toward one destination: the EAT and the first hop of
// an optimal path. Deadlines are applied by the caller (same state, many
// packet expiries), which is what makes the memo sound.
type optState struct {
	eat   trace.Time
	first int32
	ok    bool
}

type optKey struct {
	lm, dst int32
	t       trace.Time
}

// replayDecisions scores every chosen (rank-0) decision in the log
// against the oracle's per-state optimum.
func (rep *RegretReport) replayDecisions(log *telemetry.Log, g *Graph, byID map[int]*PacketRegret) {
	s := newSearcher(g)
	memo := make(map[optKey]optState)
	opt := func(lm int, t trace.Time, dst int) optState {
		if lm == dst {
			return optState{eat: t, ok: true}
		}
		k := optKey{lm: int32(lm), dst: int32(dst), t: t}
		if v, ok := memo[k]; ok {
			return v
		}
		var v optState
		s.residual = nil
		if eat, ok := s.run(lm, t, dst, maxTime); ok {
			v = optState{eat: eat, ok: true}
			// First hop: walk the parent chain back from dst to the child
			// of lm.
			child := int32(dst)
			for s.parent[child] != int32(lm) {
				child = s.parent[child]
			}
			v.first = child
		}
		memo[k] = v
		return v
	}

	inTrace := func(lm int) bool { return lm >= 0 && lm < g.L }
	perLM := make(map[int]*LandmarkRegret)
	var cur struct {
		pr         *PacketRegret
		lm         int
		t          trace.Time
		chosen     int
		candidates []int32
		valid      bool
	}
	flush := func() {
		if !cur.valid {
			return
		}
		cur.valid = false
		pr, lm := cur.pr, cur.lm
		exp := maxTime
		if ttl := log.Meta.TTL; ttl > 0 {
			exp = pr.Created + ttl
		}
		lr := perLM[lm]
		if lr == nil {
			lr = &LandmarkRegret{Landmark: lm}
			perLM[lm] = lr
		}
		lr.Decisions++
		rep.Decisions++
		vOpt := opt(lm, cur.t, pr.Dst)
		optOK := vOpt.ok && vOpt.eat < exp
		// Best continuation through the chosen hop: the earliest edge
		// lm->chosen boardable at t, then optimally onward.
		chOK := false
		var vCh trace.Time
		if a, ok := edgeEAT(g, lm, cur.t, cur.chosen); ok {
			if cur.chosen == pr.Dst {
				vCh, chOK = a, true
			} else if v2 := opt(cur.chosen, a, pr.Dst); v2.ok {
				vCh, chOK = v2.eat, true
			}
		}
		chOK = chOK && vCh < exp
		if optOK {
			if int(vOpt.first) == cur.chosen {
				lr.Agree++
			}
			for _, c := range cur.candidates {
				if c == vOpt.first {
					lr.TopK++
					break
				}
			}
			if !chOK {
				lr.Fatal++
			} else {
				lr.regretSum += float64(vCh - vOpt.eat)
				lr.scored++
			}
		}
	}
	for _, ev := range log.Events {
		if ev.Kind != telemetry.EvDecision {
			continue
		}
		if ev.Aux > 0 {
			// Alternative rows extend the pending chosen decision.
			if cur.valid && cur.pr != nil && int(ev.A) == cur.lm && ev.T == cur.t {
				cur.candidates = append(cur.candidates, ev.B)
			}
			continue
		}
		flush()
		pr := byID[int(ev.Pkt)]
		if pr == nil || !inTrace(int(ev.A)) || !inTrace(int(ev.B)) || !inTrace(pr.Dst) {
			rep.Skipped++
			continue
		}
		cur.pr = pr
		cur.lm = int(ev.A)
		cur.t = ev.T
		cur.chosen = int(ev.B)
		cur.candidates = append(cur.candidates[:0], ev.B)
		cur.valid = true
	}
	flush()

	rep.Landmarks = make([]LandmarkRegret, 0, len(perLM))
	for _, lr := range perLM {
		rep.Landmarks = append(rep.Landmarks, *lr)
	}
	sort.Slice(rep.Landmarks, func(i, j int) bool {
		return rep.Landmarks[i].Landmark < rep.Landmarks[j].Landmark
	})
}

// edgeEAT is the earliest arrival at landmark `to` using one direct
// contact edge from `from` boardable at time t: a scan filtered to the
// from -> to connections that stops once no later departure can arrive
// earlier.
func edgeEAT(g *Graph, from int, t trace.Time, to int) (trace.Time, bool) {
	best := maxTime
	for k, _ := slices.BinarySearch(g.depart, t); k < len(g.depart) && g.depart[k] < best; k++ {
		if int(g.from[k]) == from && int(g.to[k]) == to && g.arrive[k] < best {
			best = g.arrive[k]
		}
	}
	return best, best < maxTime
}
