package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
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

// epochTrace has four nodes over three landmarks for ten days, with
// visits from two hours to three days long: at any moment the present
// nodes' departures fall in several later epochs, even one-day ones.
func epochTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{Name: "EPOCHS", NumNodes: 4, NumLandmarks: 3}
	for n := 0; n < tr.NumNodes; n++ {
		for t := trace.Time(rng.Intn(3600)); t < 10*trace.Day; {
			dur := 2*trace.Hour + trace.Time(rng.Int63n(int64(3*trace.Day)))
			tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: rng.Intn(3), Start: t, End: t + dur})
			t += dur + trace.Time(rng.Int63n(int64(6*trace.Hour)))
		}
	}
	tr.SortVisits()
	return tr
}

// TestForkAcrossEpochs forks at a warmup boundary inside an epoch, with
// departures pending for several later epochs (or, for the single epoch
// longer than the trace, the whole rest of the run built but unapplied),
// at each epoch row. Every fork must equal a fresh run at the same epoch:
// summary, raw counters, router state and engine stats.
func TestForkAcrossEpochs(t *testing.T) {
	tr := epochTrace()
	cfg := func(seed int64) Config {
		return Config{Seed: seed, PacketSize: 1, NodeMemory: 100, TTL: 4 * trace.Day, Unit: trace.Day,
			Warmup: 5*trace.Day/2 + 1234, LinkRate: 0.0002}
	}
	w := NewWorkload(40, 1, 4*trace.Day)
	single := tr.Duration() + 1
	for _, epoch := range epochRows(tr) {
		build := func(w *Workload, seed int64) *Engine {
			e, err := NewSharded(func() trace.Source { return trace.NewSliceSource(tr, 3) },
				newRelayRouter(tr.NumNodes), w, cfg(seed), ShardConfig{Epoch: epoch})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		base := build(nil, 0)
		base.RunWarmup()
		if (base.measureFrom-base.start)%base.departs.epoch == 0 {
			t.Fatalf("epoch %d: warmup ends on an epoch boundary", epoch)
		}
		pending := 0
		for _, b := range base.departs.bkt {
			if len(b) > 0 {
				pending++
			}
		}
		unapplied := len(base.batch.events) - base.batch.next
		if epoch == single && unapplied == 0 {
			t.Fatalf("epoch %d: nothing built but unapplied at the warmup boundary", epoch)
		}
		if epoch != single && pending < 2 {
			t.Fatalf("epoch %d: departures pending in %d later epochs, want >= 2", epoch, pending)
		}
		snap, err := base.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		// The forks share the snapshot (its trace cursor and unapplied
		// events), so they run concurrently for the race detector.
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 3; seed++ {
			fresh := build(w, seed)
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := fresh.Run()
				forked := Fork(snap, w, seed)
				got := forked.Run()
				if !reflect.DeepEqual(got.Summary, want.Summary) || !reflect.DeepEqual(got.Raw, want.Raw) {
					t.Errorf("epoch %d seed %d: forked run differs:\ngot  %+v\nwant %+v", epoch, seed, got.Summary, want.Summary)
				}
				fr, wr := forked.router.(*relayRouter), fresh.router.(*relayRouter)
				if !reflect.DeepEqual(fr, wr) {
					t.Errorf("epoch %d seed %d: router state %+v, want %+v", epoch, seed, *fr, *wr)
				}
				if forked.Stats() != fresh.Stats() {
					t.Errorf("epoch %d seed %d: stats %+v, want %+v", epoch, seed, forked.Stats(), fresh.Stats())
				}
				if wr.relays == 0 || want.Summary.Delivered == 0 {
					t.Errorf("epoch %d seed %d: vacuous run (relays %d, delivered %d)", epoch, seed, wr.relays, want.Summary.Delivered)
				}
			}()
		}
		wg.Wait()
	}
}

// callRouter is a relayRouter that logs every callback it receives, so
// two runs can be compared callback by callback.
type callRouter struct {
	*relayRouter
	calls []routerCall
}

type routerCall struct {
	kind         byte // c contact, d depart, g generate, u time unit
	t            trace.Time
	a, b, budget int
}

func (r *callRouter) OnContact(ctx *Context, c *Contact) {
	r.calls = append(r.calls, routerCall{'c', ctx.Now(), c.Node.ID, c.Landmark, c.Budget})
	r.relayRouter.OnContact(ctx, c)
}
func (r *callRouter) OnDepart(ctx *Context, n *Node, lm int) {
	r.calls = append(r.calls, routerCall{'d', ctx.Now(), n.ID, lm, 0})
}
func (r *callRouter) OnGenerate(ctx *Context, p *Packet) {
	r.calls = append(r.calls, routerCall{'g', ctx.Now(), p.ID, p.Dst, 0})
}
func (r *callRouter) OnTimeUnit(ctx *Context, seq int) {
	r.calls = append(r.calls, routerCall{'u', ctx.Now(), seq, 0, 0})
}
func (r *callRouter) CloneRouter(ctx *Context) Router {
	return &callRouter{relayRouter: r.relayRouter.CloneRouter(ctx).(*relayRouter), calls: slices.Clone(r.calls)}
}

// TestForkReplaysWithoutBuilding pins where a fork's visit events come
// from: the snapshot's replay. A fork never reads the source and never
// pushes to or sorts departure buckets, so its reader and buckets stay
// zero values through the run (a read would dereference the nil source, a
// push would divide by the zero epoch). Three forks of one snapshot run
// concurrently at each epoch length, and each must match a fresh run
// callback by callback, with equal summary and Stats.
func TestForkReplaysWithoutBuilding(t *testing.T) {
	tr := epochTrace()
	cfg := func(seed int64) Config {
		return Config{Seed: seed, PacketSize: 1, NodeMemory: 100, TTL: 4 * trace.Day, Unit: trace.Day,
			Warmup: 5*trace.Day/2 + 1234, LinkRate: 0.0002}
	}
	w := NewWorkload(40, 1, 4*trace.Day)
	for _, epoch := range epochRows(tr) {
		build := func(w *Workload, seed int64) *Engine {
			e, err := NewSharded(func() trace.Source { return trace.NewSliceSource(tr, 3) },
				&callRouter{relayRouter: newRelayRouter(tr.NumNodes)}, w, cfg(seed), ShardConfig{Epoch: epoch})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		base := build(nil, 0)
		base.RunWarmup()
		snap, err := base.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for seed := int64(1); seed <= 3; seed++ {
			fresh := build(w, seed)
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := fresh.Run()
				forked := Fork(snap, w, seed)
				got := forked.Run()
				if !reflect.ValueOf(forked.rd).IsZero() || !reflect.ValueOf(forked.departs).IsZero() {
					t.Errorf("epoch %d seed %d: fork read the source (%d visits) or kept departure buckets (%d)", epoch, seed, forked.rd.count, len(forked.departs.bkt))
				}
				if !reflect.DeepEqual(got.Summary, want.Summary) {
					t.Errorf("epoch %d seed %d: summary %+v, want %+v", epoch, seed, got.Summary, want.Summary)
				}
				fc, wc := forked.router.(*callRouter).calls, fresh.router.(*callRouter).calls
				if !slices.Equal(fc, wc) {
					t.Errorf("epoch %d seed %d: router saw %d callbacks, want the fresh run's %d", epoch, seed, len(fc), len(wc))
				}
				if forked.Stats() != fresh.Stats() {
					t.Errorf("epoch %d seed %d: stats %+v, want %+v", epoch, seed, forked.Stats(), fresh.Stats())
				}
				if want.Summary.Delivered == 0 {
					t.Errorf("epoch %d seed %d: vacuous run", epoch, seed)
				}
			}()
		}
		wg.Wait()
	}
}

// TestRunWarmupThenRun checks that Run continues a warmed-up engine
// exactly as an uninterrupted Run would: on New's one-day epochs, where
// the warmup boundary falls mid-epoch, and on 250 s epochs, which divide
// the warmup so the boundary is an epoch end.
func TestRunWarmupThenRun(t *testing.T) {
	tr := relayTrace()
	for name, w := range relayWorkloads() {
		want := New(tr, newRelayRouter(tr.NumNodes), w, relayConfig(5)).Run()
		for _, epoch := range []trace.Time{0, 250} {
			eng, err := NewSharded(func() trace.Source { return trace.NewSliceSource(tr, 0) },
				newRelayRouter(tr.NumNodes), w, relayConfig(5), ShardConfig{Epoch: epoch})
			if err != nil {
				t.Fatal(err)
			}
			eng.RunWarmup()
			if eng.now >= eng.measureFrom {
				t.Fatalf("%s epoch %d: warmup ran to %d, past the measurement start %d", name, epoch, eng.now, eng.measureFrom)
			}
			if got := eng.Run(); !reflect.DeepEqual(got.Summary, want.Summary) || !reflect.DeepEqual(got.Raw, want.Raw) {
				t.Errorf("%s epoch %d: warmup+run differs:\ngot  %+v\nwant %+v", name, epoch, got.Summary, want.Summary)
			}
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
		{"non-slice stream", func() *Engine {
			// The anonymous wrapper hides *trace.SliceSource (and Spanner).
			open := func() trace.Source { return struct{ trace.Source }{trace.NewSliceSource(tr, 0)} }
			e, err := NewSharded(open, newRelayRouter(tr.NumNodes), nil, relayConfig(1), ShardConfig{})
			if err != nil {
				t.Fatal(err)
			}
			e.RunWarmup()
			return e
		}, "non-slice stream"},
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
