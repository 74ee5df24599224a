package baselines

import (
	"slices"
	"testing"
)

// pgrOp is one decoded PGR operation: node visits lm, or node is scored
// for destination lm.
type pgrOp struct {
	score    bool
	node, lm int
}

// pgrReference replays log on a map-based model of PGR with the same
// cache rule (a route is recomputed only when the node is scored at a
// landmark other than the one its route was computed at) and returns the
// route of the last op's node.
func pgrReference(nodes int, log []pgrOp) []int {
	counts := map[[3]int]int{} // (node, from, to) -> transitions
	last, at := make([]int, nodes), make([]int, nodes)
	routes := make([][]int, nodes)
	for i := range last {
		last[i], at[i] = -1, -1
	}
	var route []int
	for _, op := range log {
		n := op.node
		if !op.score {
			if last[n] >= 0 && last[n] != op.lm {
				counts[[3]int{n, last[n], op.lm}]++
			}
			last[n] = op.lm
			continue
		}
		route = nil
		if last[n] < 0 {
			continue
		}
		if at[n] != last[n] {
			routes[n] = nil
			for cur := last[n]; len(routes[n]) < pgrHorizon; {
				best, bestC := -1, 0
				for k, c := range counts {
					if k[0] == n && k[1] == cur && (c > bestC || c == bestC && k[2] < best) {
						best, bestC = k[2], c
					}
				}
				if best < 0 {
					break
				}
				routes[n] = append(routes[n], best)
				cur = best
			}
			at[n] = last[n]
		}
		route = routes[n]
	}
	return route
}

// FuzzPGRRoute checks PGR's transition rows and flat route cache against
// pgrReference. The input decodes to 1-3 nodes over 1-6 landmarks and a
// sequence of one-byte ops: bit 0 picks a visit or a score, bit 1 the
// instance, bits 2-3 the node and bits 4-6 the landmark or destination.
// One Clone happens at a step the header picks; after it, ops go to the
// original or the clone. Every scoring's route and score must equal the
// reference's for the instance's own op log. The seed corpus is in
// testdata/fuzz/FuzzPGRRoute.
func FuzzPGRRoute(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzBytes(data)
		nodes := 1 + int(ops.take())%3
		nLm := 1 + int(ops.take())%6
		cloneAt := int(ops.take()) % (1 + len(ops)/2)
		ctx := miniCtx(t, nodes, nLm)
		type instance struct {
			m   *PGR
			log []pgrOp
		}
		insts := []*instance{{m: NewPGR()}}
		insts[0].m.Init(ctx)
		for step := 0; len(ops) > 0 && step < 256; step++ {
			if step == cloneAt {
				orig := insts[0]
				insts = append(insts, &instance{m: orig.m.Clone().(*PGR), log: slices.Clone(orig.log)})
			}
			op := ops.take()
			in := insts[int(op>>1&1)%len(insts)]
			o := pgrOp{score: op&1 == 1, node: int(op>>2&3) % nodes, lm: int(op>>4&7) % nLm}
			in.log = append(in.log, o)
			if !o.score {
				in.m.OnVisit(ctx, ctx.Nodes[o.node], o.lm)
				continue
			}
			want := pgrReference(nodes, in.log)
			if got := in.m.predictedRoute(o.node); !slices.Equal(got, want) {
				t.Fatalf("step %d: node %d route %v, reference %v", step, o.node, got, want)
			}
			wantS := 0.0
			if i := slices.Index(want, o.lm); i >= 0 {
				wantS = 1 / float64(i+1)
			}
			if got := in.m.Score(ctx, o.node, o.lm, 0); got != wantS {
				t.Fatalf("step %d: node %d dst %d score %v, reference %v", step, o.node, o.lm, got, wantS)
			}
		}
	})
}
