package core

import (
	"sort"

	"repro/internal/sim"
)

// Node-destination routing (Section IV-E.4): nodes have skewed visiting
// preferences, so they summarise their most frequently visited landmarks
// and report them; a packet destined to a mobile node is routed to one of
// the destination's frequented landmarks and waits there until the node
// connects.

// topF is F of Section IV-E.4: how many of the destination node's most
// frequented landmarks are candidates for the rendezvous landmark.
const topF = 3

// visitCounts tallies a node's landmark visits for the frequented-landmark
// summary. It lives on the router so it exists even before NodeRouting
// packets appear.
func (r *Router) refreshFrequented(nodeID, lm int) {
	// Reuse the Markov predictor's history: count occurrences lazily.
	// Frequented lists are recomputed from visit tallies kept here.
	if r.freqCounts == nil {
		r.freqCounts = make([]map[int]int, len(r.nodes))
	}
	if r.freqCounts[nodeID] == nil {
		r.freqCounts[nodeID] = map[int]int{}
	}
	r.freqCounts[nodeID][lm]++
	counts := r.freqCounts[nodeID]
	type lc struct{ lm, c int }
	all := make([]lc, 0, len(counts))
	for l, c := range counts {
		all = append(all, lc{l, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].lm < all[j].lm
	})
	top := topF
	if top > len(all) {
		top = len(all)
	}
	lst := make([]int, top)
	for i := 0; i < top; i++ {
		lst[i] = all[i].lm
	}
	r.freq[nodeID] = lst
}

// assignNodeDest picks the rendezvous landmark for a node-destined packet:
// the destination node's frequented landmark with the smallest expected
// delay from the packet's source (falling back to the most frequented, then
// to the packet's original random landmark when the node has no history).
func (r *Router) assignNodeDest(p *sim.Packet) {
	lst := r.freq[p.DstNode]
	if len(lst) == 0 {
		return
	}
	src := r.landmarks[p.Src].table
	best, bestD := lst[0], src.Delay(lst[0])
	for _, lm := range lst[1:] {
		if d := src.Delay(lm); d < bestD {
			best, bestD = lm, d
		}
	}
	p.Dst = best
}

// nodeRoutingOnContact delivers any waiting packets addressed to the
// arriving node and refreshes its frequented-landmark report.
func (r *Router) nodeRoutingOnContact(ctx *sim.Context, n *sim.Node, lm int) {
	r.refreshFrequented(n.ID, lm)
	st := ctx.Stations[lm]
	var mine []*sim.Packet
	for _, p := range st.Buffer.Packets() {
		if p.DstNode == n.ID {
			mine = append(mine, p)
		}
	}
	for _, p := range mine {
		ctx.DeliverFromStation(st, n, p)
	}
	// Packets the node itself carries that are addressed to it (possible
	// when it was chosen as a carrier) are delivered directly.
	var held []*sim.Packet
	for _, p := range n.Buffer.Packets() {
		if p.DstNode == n.ID {
			held = append(held, p)
		}
	}
	for _, p := range held {
		ctx.DeliverToNode(n, p)
	}
}
