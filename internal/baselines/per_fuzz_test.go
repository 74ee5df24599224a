package baselines

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// perVisit is one decoded visit: node moves to landmark lm after dt time
// units at its previous landmark.
type perVisit struct {
	node, lm int
	dt       trace.Time
}

// apply feeds v to m. The test context's clock stands still, so the
// node's last arrival is moved dt into the past to give its semi-Markov
// model a sojourn time: with a zero mean step every score would take the
// whole budget, and only the deepest bucket would be exercised.
func (v perVisit) apply(m *PER, ctx *sim.Context) {
	m.lastTime[v.node] = ctx.Now() - v.dt
	m.OnVisit(ctx, ctx.Nodes[v.node], v.lm)
}

// FuzzPERCache checks PER's per-bucket hitting cache against fresh
// instances. The input decodes to 1-3 nodes over 1-6 landmarks and a
// sequence of visits and scorings; op byte bit 0 picks a visit or a score,
// bit 1 the instance, bits 2-3 the node and bits 4-6 the landmark or
// destination, and a second byte the sojourn time (visit) or the remaining
// TTL in mean steps, 0-19 so that both clamps and every bucket are hit
// (score). One Clone happens at a step the header picks; after it, ops go
// to the original or the clone. Every score, cached or not, must equal bit
// for bit the score of a fresh PER fed the same visits. The seed corpus,
// one input per cache fault it guards against, is in
// testdata/fuzz/FuzzPERCache.
func FuzzPERCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := fuzzBytes(data)
		nodes := 1 + int(ops.take())%3
		nLm := 1 + int(ops.take())%6
		cloneAt := int(ops.take()) % (1 + len(ops)/2)
		ctx := miniCtx(t, nodes, nLm)
		type instance struct {
			m   *PER
			log []perVisit
		}
		insts := []*instance{{m: NewPER()}}
		insts[0].m.Init(ctx)
		for step := 0; len(ops) > 0 && step < 128; step++ {
			if step == cloneAt {
				orig := insts[0]
				insts = append(insts, &instance{m: orig.m.Clone().(*PER), log: slices.Clone(orig.log)})
			}
			op, arg := ops.take(), ops.take()
			in := insts[int(op>>1&1)%len(insts)]
			node, lm := int(op>>2&3)%nodes, int(op>>4&7)%nLm
			if op&1 == 0 {
				v := perVisit{node: node, lm: lm, dt: 1 + trace.Time(arg)}
				v.apply(in.m, ctx)
				in.log = append(in.log, v)
				continue
			}
			mean := in.m.mean[node]
			steps := trace.Time(arg % 20)
			remaining := steps*mean + mean*trace.Time(arg/20)/13
			got := in.m.Score(ctx, node, lm, remaining)
			fresh := NewPER()
			fresh.Init(ctx)
			for _, v := range in.log {
				v.apply(fresh, ctx)
			}
			if want := fresh.Score(ctx, node, lm, remaining); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: node %d dst %d at %d mean steps: cached score %v, fresh %v", step, node, lm, steps, got, want)
			}
		}
	})
}

// fuzzBytes reads a fuzz input one byte at a time; a read past the end
// yields 0.
type fuzzBytes []byte

func (o *fuzzBytes) take() byte {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}
