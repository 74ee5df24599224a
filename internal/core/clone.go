package core

import (
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Warm-state cloning (sim.Cloner): a deep copy of every piece of control
// state the router accumulates during warmup — per-node predictors and
// carried control payloads, per-landmark routing/bandwidth tables and
// load-balancing rates. Everything here is a pure read of the receiver so
// that concurrent forks of one frozen router are race-free; scratch
// buffers are left fresh in the clone (they are reset before use on every
// pass). UnitHook is engine-specific instrumentation and deliberately not
// carried across a fork.

var _ sim.Cloner = (*Router)(nil)

// CloneRouter implements sim.Cloner.
func (r *Router) CloneRouter(ctx *sim.Context) sim.Router {
	cp := &Router{
		cfg:     r.cfg,
		ctx:     ctx,
		name:    r.name,
		unitSeq: r.unitSeq,
	}
	cp.nodes = make([]*nodeState, len(r.nodes))
	for i, ns := range r.nodes {
		cp.nodes[i] = ns.clone()
	}
	cp.landmarks = make([]*landmarkState, len(r.landmarks))
	for i, ls := range r.landmarks {
		cp.landmarks[i] = ls.clone()
	}
	cp.freq = make([][]int, len(r.freq))
	for i, lst := range r.freq {
		if lst != nil {
			cp.freq[i] = append([]int(nil), lst...)
		}
	}
	if r.freqCounts != nil {
		cp.freqCounts = make([]map[int]int, len(r.freqCounts))
		for i, m := range r.freqCounts {
			if m == nil {
				continue
			}
			counts := make(map[int]int, len(m))
			for lm, c := range m {
				counts[lm] = c
			}
			cp.freqCounts[i] = counts
		}
	}
	cp.reachStamp = append([]int(nil), r.reachStamp...)
	cp.directStamp = append([]int(nil), r.directStamp...)
	cp.carrierBkt = make([][]carrierEnt, len(r.carrierBkt))
	cp.reachEpoch = r.reachEpoch
	return cp
}

func (ns *nodeState) clone() *nodeState {
	cp := &nodeState{
		pred:      ns.pred.Clone(),
		acc:       ns.acc.Clone(),
		predicted: ns.predicted,
		predFrom:  ns.predFrom,
		predProb:  ns.predProb,
		accVal:    ns.accVal,
		stay:      append([]stayStat(nil), ns.stay...),
		totalSum:  ns.totalSum,
		totalCnt:  ns.totalCnt,
		deadEnded: ns.deadEnded,
	}
	if len(ns.vectors) > 0 {
		cp.vectors = make([]carriedVector, len(ns.vectors))
		for i, v := range ns.vectors {
			v.vec = append([]float64(nil), v.vec...)
			cp.vectors[i] = v
		}
	}
	if len(ns.reportsShare) > 0 {
		cp.reportsShare = append([]routing.BandwidthReport(nil), ns.reportsShare...)
	}
	if len(ns.notices) > 0 {
		cp.notices = append([]correctionNotice(nil), ns.notices...)
	}
	return cp
}

func (ls *landmarkState) clone() *landmarkState {
	cp := &landmarkState{
		table:       ls.table.Snapshot(),
		bw:          ls.bw.Clone(),
		arrivals:    ls.arrivals.Clone(),
		version:     ls.version,
		changedAt:   ls.changedAt,
		pending:     append([]routing.BandwidthReport(nil), ls.pending...),
		hasPending:  append([]bool(nil), ls.hasPending...),
		pendingList: append([]int(nil), ls.pendingList...),
		advGen:      ls.advGen,
		// reportsShared is rebuilt on demand from the copied pending set.
		reportsStale: true,
		forcedUntil:  make(map[int]trace.Time, len(ls.forcedUntil)),
		lbAssigned:   append([]float64(nil), ls.lbAssigned...),
		lbSent:       append([]float64(nil), ls.lbSent...),
		lbInRate:     append([]float64(nil), ls.lbInRate...),
		lbOutRate:    append([]float64(nil), ls.lbOutRate...),
	}
	if len(ls.lastHops) > 0 {
		cp.lastHops = append([]int(nil), ls.lastHops...)
	}
	if len(ls.lastDelays) > 0 {
		cp.lastDelays = append([]float64(nil), ls.lastDelays...)
	}
	if len(ls.advVec) > 0 {
		cp.advVec = append([]float64(nil), ls.advVec...)
	}
	if len(ls.notices) > 0 {
		cp.notices = append([]correctionNotice(nil), ls.notices...)
	}
	for d, until := range ls.forcedUntil {
		cp.forcedUntil[d] = until
	}
	return cp
}
