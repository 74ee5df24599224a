package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// relayRouter is a small clonable router that exercises every transfer
// primitive. Its decisions depend on warm state (per-node visit counts
// learned from the first contact on), so a fork that lost or shared that
// state would route differently from a fresh run:
//   - a node-destined packet is delivered in place when its destination
//     holds it, or relayed to the destination when it is present;
//   - a landmark-destined packet is uploaded, unless a present node with
//     more recorded visits can take it by relay;
//   - station packets are handed to their destination node, or downloaded.
type relayRouter struct {
	visits  []int
	relays  int
	toNode  int
	timerAt trace.Time // > 0: Init schedules a no-op timer at this time
}

func newRelayRouter(nodes int) *relayRouter { return &relayRouter{visits: make([]int, nodes)} }

func (r *relayRouter) Name() string { return "relay" }
func (r *relayRouter) Init(ctx *Context) {
	if r.timerAt > 0 {
		ctx.Schedule(r.timerAt, func() {})
	}
}
func (r *relayRouter) OnDepart(ctx *Context, n *Node, lm int) {}
func (r *relayRouter) OnGenerate(ctx *Context, p *Packet)     {}
func (r *relayRouter) OnTimeUnit(ctx *Context, seq int)       {}

func (r *relayRouter) OnContact(ctx *Context, c *Contact) {
	n := c.Node
	r.visits[n.ID]++
	present := ctx.NodesAt(c.Landmark)
	for _, p := range slices.Clone(n.Buffer.Packets()) {
		switch {
		case p.DstNode == n.ID:
			ctx.DeliverToNode(n, p)
			r.toNode++
		case p.DstNode >= 0:
			for _, m := range present {
				if m.ID == p.DstNode && ctx.Relay(c, n, m, p) {
					ctx.DeliverToNode(m, p)
					r.relays++
					r.toNode++
					break
				}
			}
		default:
			relayed := false
			for _, m := range present {
				if m != n && r.visits[m.ID] > r.visits[n.ID] && ctx.Relay(c, n, m, p) {
					r.relays++
					relayed = true
					break
				}
			}
			if !relayed {
				ctx.Upload(c, n, p)
			}
		}
	}
	st := ctx.Stations[c.Landmark]
	for _, p := range slices.Clone(st.Buffer.Packets()) {
		if p.DstNode == n.ID {
			ctx.DeliverFromStation(st, n, p)
		} else if p.DstNode < 0 || p.Dst != c.Landmark {
			ctx.Download(c, st, n, p)
		}
	}
}

func (r *relayRouter) CloneRouter(ctx *Context) Router {
	cp := *r
	cp.visits = slices.Clone(r.visits)
	return &cp
}

// relayTrace has four nodes wandering over three landmarks with long,
// overlapping visits, so nodes meet at landmarks and relay.
func relayTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(11))
	tr := &trace.Trace{Name: "RELAY", NumNodes: 4, NumLandmarks: 3}
	for n := 0; n < tr.NumNodes; n++ {
		for t := trace.Time(rng.Intn(300)); t < 20000; {
			dur := trace.Time(300 + rng.Intn(500))
			tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: rng.Intn(3), Start: t, End: t + dur})
			t += dur + trace.Time(rng.Intn(200))
		}
	}
	tr.SortVisits()
	return tr
}

func relayConfig(seed int64) Config {
	return Config{Seed: seed, PacketSize: 1, NodeMemory: 20, TTL: 4000, Unit: 1000, Warmup: 5000, LinkRate: 0.02}
}

// relayWorkloads are a landmark-destined and a node-destined workload.
func relayWorkloads() map[string]*Workload {
	nodes := NewWorkload(400, 1, 4000)
	nodes.DstNodes = []int{0, 1, 2, 3}
	return map[string]*Workload{"landmark": NewWorkload(400, 1, 4000), "node": nodes}
}

// TestForkMatchesFreshRun pins fork.go's contract inside the package: a
// run forked from a warmup snapshot reproduces a fresh end-to-end run with
// the same seed — summary, raw counters and final router state — and
// leaves the snapshot's router untouched, so one snapshot serves every
// seed.
func TestForkMatchesFreshRun(t *testing.T) {
	tr := relayTrace()
	base := New(tr, newRelayRouter(tr.NumNodes), nil, relayConfig(0))
	base.RunWarmup()
	snap, err := base.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm := slices.Clone(base.router.(*relayRouter).visits)
	for name, w := range relayWorkloads() {
		for seed := int64(1); seed <= 3; seed++ {
			fresh := New(tr, newRelayRouter(tr.NumNodes), w, relayConfig(seed))
			want := fresh.Run()
			forked := Fork(snap, w, seed)
			got := forked.Run()
			if !reflect.DeepEqual(got.Summary, want.Summary) || !reflect.DeepEqual(got.Raw, want.Raw) {
				t.Errorf("%s seed %d: forked run differs:\ngot  %+v\nwant %+v", name, seed, got.Summary, want.Summary)
			}
			if got.Duration != want.Duration {
				t.Errorf("%s seed %d: duration %d vs %d", name, seed, got.Duration, want.Duration)
			}
			fr, wr := forked.router.(*relayRouter), fresh.router.(*relayRouter)
			if !reflect.DeepEqual(fr, wr) {
				t.Errorf("%s seed %d: router state %+v, want %+v", name, seed, *fr, *wr)
			}
			if wr.relays == 0 || (name == "node" && wr.toNode == 0) {
				t.Errorf("%s seed %d: vacuous run (relays %d, node deliveries %d)", name, seed, wr.relays, wr.toNode)
			}
		}
	}
	if got := base.router.(*relayRouter).visits; !slices.Equal(got, warm) {
		t.Errorf("forks mutated the snapshot router: visits %v, want %v", got, warm)
	}
}

// TestRunWarmupThenRun checks that Run continues a warmed-up engine
// exactly as an uninterrupted Run would.
func TestRunWarmupThenRun(t *testing.T) {
	tr := relayTrace()
	for name, w := range relayWorkloads() {
		want := New(tr, newRelayRouter(tr.NumNodes), w, relayConfig(5)).Run()
		eng := New(tr, newRelayRouter(tr.NumNodes), w, relayConfig(5))
		eng.RunWarmup()
		if eng.now >= eng.measureFrom {
			t.Fatalf("%s: warmup ran to %d, past the measurement start %d", name, eng.now, eng.measureFrom)
		}
		if got := eng.Run(); !reflect.DeepEqual(got.Summary, want.Summary) || !reflect.DeepEqual(got.Raw, want.Raw) {
			t.Errorf("%s: warmup+run differs:\ngot  %+v\nwant %+v", name, got.Summary, want.Summary)
		}
	}
}

// TestSnapshotRejects covers every state Snapshot refuses to fork.
func TestSnapshotRejects(t *testing.T) {
	tr := relayTrace()
	cases := []struct {
		name string
		eng  func() *Engine
		want string
	}{
		{"not a Cloner", func() *Engine {
			e := New(tr, &hookRouter{}, nil, relayConfig(1))
			e.RunWarmup()
			return e
		}, "does not implement Cloner"},
		{"before warmup", func() *Engine {
			return New(tr, newRelayRouter(tr.NumNodes), nil, relayConfig(1))
		}, "before RunWarmup"},
		{"checker attached", func() *Engine {
			cfg := relayConfig(1)
			cfg.Check = nopChecker{}
			e := New(tr, newRelayRouter(tr.NumNodes), nil, cfg)
			e.RunWarmup()
			return e
		}, "invariant checker"},
		{"pending timer", func() *Engine {
			r := newRelayRouter(tr.NumNodes)
			r.timerAt = 9000
			e := New(tr, r, nil, relayConfig(1))
			e.RunWarmup()
			return e
		}, "pending timer"},
		{"pending generation", func() *Engine {
			e := New(tr, newRelayRouter(tr.NumNodes), NewWorkload(400, 1, 4000), relayConfig(1))
			e.RunWarmup()
			return e
		}, "pending packet generation"},
		{"node holds packets", func() *Engine {
			e := New(tr, newRelayRouter(tr.NumNodes), nil, relayConfig(1))
			e.RunWarmup()
			e.ctx.Nodes[2].Buffer.Add(&Packet{ID: 0, Size: 1, DstNode: -1, Expiry: 1 << 40})
			return e
		}, "node 2 holds packets"},
		{"station holds packets", func() *Engine {
			e := New(tr, newRelayRouter(tr.NumNodes), nil, relayConfig(1))
			e.RunWarmup()
			e.ctx.Stations[1].Buffer.Add(&Packet{ID: 0, Size: 1, DstNode: -1, Expiry: 1 << 40})
			return e
		}, "station 1 holds packets"},
	}
	for _, tc := range cases {
		if _, err := tc.eng().Snapshot(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Snapshot error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// nopChecker is a Checker that checks nothing.
type nopChecker struct{}

func (nopChecker) Generated(trace.Time, *Packet)                                {}
func (nopChecker) Transferred(trace.Time, telemetry.HopKind, *Packet, int, int) {}
func (nopChecker) Delivered(trace.Time, *Packet, int)                           {}
func (nopChecker) Dropped(trace.Time, *Packet, metrics.DropReason)              {}
func (nopChecker) Score(trace.Time, string, int, int, float64)                  {}
func (nopChecker) Table(trace.Time, int, *routing.Table)                        {}
func (nopChecker) Scan(trace.Time, *Context)                                    {}
func (nopChecker) Finish(*Context)                                              {}
