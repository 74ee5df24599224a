package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func TestBuffer(t *testing.T) {
	b := NewBuffer(100)
	p1 := &Packet{ID: 1, Size: 60}
	p2 := &Packet{ID: 2, Size: 60}
	if !b.Add(p1) {
		t.Fatal("first add failed")
	}
	if b.Add(p2) {
		t.Fatal("overflow add succeeded")
	}
	if b.Used() != 60 || b.Free() != 40 || b.Len() != 1 {
		t.Errorf("used=%d free=%d len=%d", b.Used(), b.Free(), b.Len())
	}
	if !b.Remove(p1) || b.Remove(p1) {
		t.Error("remove semantics wrong")
	}
	if b.Used() != 0 {
		t.Errorf("used after remove = %d", b.Used())
	}
	unlimited := NewBuffer(0)
	if !unlimited.Fits(1 << 40) {
		t.Error("unlimited buffer rejected a packet")
	}
}

// Property: a buffer never exceeds its capacity under random add/remove.
func TestBufferNeverOverflows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cap := int64(1 + r.Intn(1000))
		b := NewBuffer(cap)
		var held []*Packet
		for i := 0; i < 200; i++ {
			if r.Float64() < 0.6 {
				p := &Packet{ID: i, Size: int64(1 + r.Intn(200))}
				if b.Add(p) {
					held = append(held, p)
				}
			} else if len(held) > 0 {
				i := r.Intn(len(held))
				b.Remove(held[i])
				held = append(held[:i], held[i+1:]...)
			}
			if b.Used() > cap {
				return false
			}
		}
		var sum int64
		for _, p := range held {
			sum += p.Size
		}
		return sum == b.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWorkloadScheduleCount(t *testing.T) {
	w := NewWorkload(100, 1024, trace.Day)
	pkts := w.Schedule(rand.New(rand.NewSource(1)), 0, 10*trace.Day, 5)
	if len(pkts) < 900 || len(pkts) > 1100 {
		t.Errorf("packets = %d, want ~1000", len(pkts))
	}
	for i, p := range pkts {
		if p.ID != i {
			t.Fatal("IDs not dense in order")
		}
		if p.Src == p.Dst {
			t.Fatal("src == dst generated")
		}
		if p.Expiry != p.Created+trace.Day {
			t.Fatal("TTL wrong")
		}
		if i > 0 && p.Created < pkts[i-1].Created {
			t.Fatal("not sorted")
		}
	}
}

func TestWorkloadDaytimeOnly(t *testing.T) {
	w := &Workload{Rate: 50, DaytimeOnly: true, PacketSize: 1, TTL: trace.Day, FixedDst: -1}
	pkts := w.Schedule(rand.New(rand.NewSource(1)), 0, 5*trace.Day, 3)
	for _, p := range pkts {
		sod := p.Created % trace.Day
		if sod < 8*trace.Hour || sod > 20*trace.Hour {
			t.Fatalf("packet at %v outside daytime", sod)
		}
	}
}

// TestScheduleOneSlab checks Schedule's size bound: every packet of a
// schedule lives in one slab, so the bound was never exceeded (an append
// past it would move the later packets to a second array).
func TestScheduleOneSlab(t *testing.T) {
	surges := []Surge{
		{Start: trace.Day / 2, End: 2 * trace.Day, Landmarks: []int{0, 1}, Rate: 40},
		{Start: 3 * trace.Day, End: 9 * trace.Day, Landmarks: []int{2}, Rate: 13.7}, // clipped at to
	}
	for name, w := range map[string]*Workload{
		"fractional":   {Rate: 7.5, PacketSize: 1, TTL: trace.Day, FixedDst: -1},
		"per-landmark": {Rate: 10.2, PerLandmark: true, DaytimeOnly: true, PacketSize: 1, TTL: trace.Day, FixedDst: 2},
		"surges":       {Rate: 20, PacketSize: 1, TTL: trace.Day, FixedDst: -1, Surges: surges},
	} {
		for _, span := range [][2]trace.Time{{0, 4 * trace.Day}, {trace.Day / 3, 4*trace.Day + 5*trace.Hour}} {
			pkts := w.Schedule(rand.New(rand.NewSource(3)), span[0], span[1], 4)
			if len(pkts) == 0 {
				t.Fatalf("%s %v: no packets", name, span)
			}
			lo, hi := uintptr(unsafe.Pointer(pkts[0])), uintptr(unsafe.Pointer(pkts[0]))
			for _, p := range pkts {
				a := uintptr(unsafe.Pointer(p))
				lo, hi = min(lo, a), max(hi, a)
			}
			if n := int((hi-lo)/unsafe.Sizeof(Packet{})) + 1; n != len(pkts) {
				t.Errorf("%s %v: %d packets spread over %d slots", name, span, len(pkts), n)
			}
		}
	}
}

func TestWorkloadPerLandmarkFixedDst(t *testing.T) {
	w := &Workload{Rate: 10, PerLandmark: true, PacketSize: 1, TTL: trace.Day, FixedDst: 2}
	pkts := w.Schedule(rand.New(rand.NewSource(1)), 0, 3*trace.Day, 4)
	bySrc := map[int]int{}
	for _, p := range pkts {
		if p.Dst != 2 {
			t.Fatal("dst not fixed")
		}
		bySrc[p.Src]++
	}
	if bySrc[2] != 0 {
		t.Error("sink generated packets to itself")
	}
	if len(bySrc) != 3 {
		t.Errorf("sources = %v, want the 3 non-sink landmarks", bySrc)
	}
}

// recordingRouter logs engine callbacks for order verification and
// uploads/delivers packets greedily.
type recordingRouter struct {
	events []string
	log    func(string)
}

func (r *recordingRouter) Name() string      { return "recorder" }
func (r *recordingRouter) Init(ctx *Context) { r.events = append(r.events, "init") }
func (r *recordingRouter) OnTimeUnit(ctx *Context, seq int) {
	r.events = append(r.events, "unit")
}
func (r *recordingRouter) OnGenerate(ctx *Context, p *Packet) {
	r.events = append(r.events, "gen")
}
func (r *recordingRouter) OnDepart(ctx *Context, n *Node, lm int) {
	r.events = append(r.events, "depart")
}
func (r *recordingRouter) OnContact(ctx *Context, c *Contact) {
	r.events = append(r.events, "contact")
	n := c.Node
	// Upload everything (delivers at destination); then pick up
	// everything from the station.
	for _, p := range append([]*Packet(nil), n.Buffer.Packets()...) {
		ctx.Upload(c, n, p)
	}
	st := ctx.Stations[c.Landmark]
	for _, p := range append([]*Packet(nil), st.Buffer.Packets()...) {
		ctx.Download(c, st, n, p)
	}
}

// twoHopTrace: node 0 shuttles between landmarks 0 and 1.
func twoHopTrace(trips int) *trace.Trace {
	tr := &trace.Trace{Name: "2HOP", NumNodes: 1, NumLandmarks: 2}
	t := trace.Time(0)
	for i := 0; i < trips; i++ {
		tr.Visits = append(tr.Visits, trace.Visit{Node: 0, Landmark: i % 2, Start: t, End: t + 100})
		t += 200
	}
	tr.SortVisits()
	return tr
}

func TestEngineDeliversViaCarrier(t *testing.T) {
	tr := twoHopTrace(10)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 1000, TTL: 10000, Unit: 500, Warmup: 0, LinkRate: 10}
	w := &Workload{Rate: 0} // no random workload; inject manually below
	r := &recordingRouter{}
	eng := New(tr, r, w, cfg)
	// Inject one packet at landmark 0 destined to landmark 1 at t=50.
	p := &Packet{ID: 0, Src: 0, Dst: 1, DstNode: -1, Size: 1, Created: 50, Expiry: 10050, NextHop: -1}
	eng.ctx.Stations[0].Buffer.Add(p)
	res := eng.Run()
	if !p.Delivered() {
		t.Fatal("packet not delivered")
	}
	_ = res
	// Events: init first, then alternating contact/depart.
	if r.events[0] != "init" {
		t.Errorf("first event = %s", r.events[0])
	}
}

func TestEngineTTLExpiry(t *testing.T) {
	tr := twoHopTrace(10)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 1000, TTL: 10, Unit: 500, LinkRate: 10}
	r := &recordingRouter{}
	eng := New(tr, r, nil, cfg)
	p := &Packet{ID: 0, Src: 0, Dst: 1, DstNode: -1, Size: 1, Created: 0, Expiry: 10, NextHop: -1}
	eng.ctx.Stations[0].Buffer.Add(p)
	eng.Run()
	if p.Delivered() {
		t.Fatal("expired packet delivered")
	}
	if !p.Dropped() {
		t.Fatal("expired packet not dropped")
	}
}

func TestEngineGenerateAccounting(t *testing.T) {
	tr := twoHopTrace(40)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 1 << 20, TTL: trace.Day, Unit: 1000, Warmup: 0, LinkRate: 100}
	w := NewWorkload(2000, 1, trace.Day)
	r := &recordingRouter{}
	res := New(tr, r, w, cfg).Run()
	if res.Summary.Generated == 0 {
		t.Fatal("nothing generated")
	}
	if res.Summary.Delivered+res.Raw.Dropped[0]+res.Raw.Dropped[1]+res.Raw.Dropped[2] != res.Summary.Generated {
		t.Errorf("accounting mismatch: %+v", res.Summary)
	}
	if res.Summary.SuccessRate <= 0 {
		t.Error("no successes on a trivial shuttle")
	}
}

func TestEngineDeterminism(t *testing.T) {
	tr := twoHopTrace(30)
	run := func() metrics.Summary {
		cfg := Config{Seed: 7, PacketSize: 1, NodeMemory: 100, TTL: 2000, Unit: 1000, LinkRate: 5}
		w := NewWorkload(3000, 1, 2000)
		return New(tr, &recordingRouter{}, w, cfg).Run().Summary
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestContactBudget(t *testing.T) {
	tr := twoHopTrace(4)
	// LinkRate so low the budget is 1 transfer per contact.
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 1000, TTL: 1 << 40, Unit: 1 << 40, LinkRate: 0.000001}
	r := &recordingRouter{}
	eng := New(tr, r, nil, cfg)
	for i := 0; i < 5; i++ {
		p := &Packet{ID: i, Src: 0, Dst: 1, DstNode: -1, Size: 1, Created: 0, Expiry: 1 << 40, NextHop: -1}
		eng.ctx.Stations[0].Buffer.Add(p)
	}
	res := eng.Run()
	// With budget 1 per contact and 2 visits to landmark 0, at most 2
	// packets can ever leave station 0.
	if got := res.Raw.ForwardingOps; got > 4 {
		t.Errorf("forwarding ops = %d, want <= 4 under budget 1/contact", got)
	}
}

func TestScheduleTimer(t *testing.T) {
	tr := twoHopTrace(4)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 1000, Unit: 1 << 40, LinkRate: 1}
	fired := []trace.Time{}
	r := &hookRouter{onContact: func(ctx *Context, c *Contact) {
		if len(fired) == 0 {
			ctx.Schedule(c.Start+37, func() { fired = append(fired, ctx.Now()) })
		}
	}}
	New(tr, r, nil, cfg).Run()
	if len(fired) != 1 || fired[0] != 37 {
		t.Errorf("timer fired = %v, want [37]", fired)
	}
}

// TestContactReused pins the engine's side of the Contact lifetime
// contract: every arrival hands OnContact the same engine-owned *Contact,
// rewritten with that visit's node, landmark, span and a fresh budget — a
// budget the previous callee spent does not leak into the next contact.
func TestContactReused(t *testing.T) {
	tr := relayTrace()
	var ptrs []*Contact
	var got []Contact
	r := &hookRouter{onContact: func(ctx *Context, c *Contact) {
		ptrs = append(ptrs, c)
		got = append(got, *c)
		c.Budget = 0
	}}
	eng := New(tr, r, nil, relayConfig(1))
	eng.Run()
	if len(got) != len(tr.Visits) {
		t.Fatalf("%d contacts for %d visits", len(got), len(tr.Visits))
	}
	for i, v := range tr.Visits {
		want := Contact{Node: eng.ctx.Nodes[v.Node], Landmark: v.Landmark, Start: v.Start, End: v.End, Budget: eng.contactBudget(v)}
		if got[i] != want {
			t.Errorf("contact %d = %+v, want %+v", i, got[i], want)
		}
		if ptrs[i] != ptrs[0] {
			t.Fatalf("contact %d is a new *Contact (%p), want the engine's one (%p)", i, ptrs[i], ptrs[0])
		}
	}
}

// hookRouter adapts closures into a Router.
type hookRouter struct {
	onContact func(*Context, *Contact)
}

func (h *hookRouter) Name() string      { return "hook" }
func (h *hookRouter) Init(ctx *Context) {}
func (h *hookRouter) OnContact(ctx *Context, c *Contact) {
	if h.onContact != nil {
		h.onContact(ctx, c)
	}
}
func (h *hookRouter) OnDepart(ctx *Context, n *Node, lm int) {}
func (h *hookRouter) OnGenerate(ctx *Context, p *Packet)     {}
func (h *hookRouter) OnTimeUnit(ctx *Context, seq int)       {}

// TestStationMemoryDropNoRoom checks the DropNoRoom wiring: with a
// capacity-limited station and a router that never drains it, packets
// generated beyond the capacity are dropped with DropNoRoom and the
// accounting still balances.
func TestStationMemoryDropNoRoom(t *testing.T) {
	tr := twoHopTrace(4)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 10, StationMemory: 2,
		TTL: 1 << 30, Unit: 1 << 40, LinkRate: 1}
	w := NewWorkload(5000, 1, 1<<30)
	res := New(tr, &hookRouter{}, w, cfg).Run()
	if res.Summary.Generated < 3 {
		t.Fatalf("generated = %d, want enough to overflow a 2-byte station", res.Summary.Generated)
	}
	// Each of the two stations can hold 2 one-byte packets; those linger
	// to the end of the run (DropEnd), everything else bounces (NoRoom).
	noRoom := res.Raw.Dropped[metrics.DropNoRoom]
	if noRoom < res.Summary.Generated-4 || noRoom == 0 {
		t.Errorf("DropNoRoom = %d, want >= generated-4 = %d", noRoom, res.Summary.Generated-4)
	}
	total := res.Summary.Delivered
	for _, n := range res.Raw.Dropped {
		total += n
	}
	if total != res.Summary.Generated {
		t.Errorf("accounting mismatch: delivered+drops = %d, generated = %d", total, res.Summary.Generated)
	}
}

// TestEngineEmitsTelemetry checks the engine-side probe points: the
// recorded generated/forwarded/delivered totals equal the metrics
// counters, and queue depths are sampled at unit boundaries.
func TestEngineEmitsTelemetry(t *testing.T) {
	tr := twoHopTrace(40)
	rec := telemetry.NewRecorder(1 << 16)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 1 << 20, TTL: trace.Day, Unit: 1000,
		LinkRate: 100, Probe: telemetry.NewProbe(rec)}
	w := NewWorkload(2000, 1, trace.Day)
	res := New(tr, &recordingRouter{}, w, cfg).Run()
	c := rec.Counters()
	if int(c.Events["generated"]) != res.Summary.Generated {
		t.Errorf("generated: telemetry %d vs metrics %d", c.Events["generated"], res.Summary.Generated)
	}
	if int(c.Events["delivered"]) != res.Summary.Delivered {
		t.Errorf("delivered: telemetry %d vs metrics %d", c.Events["delivered"], res.Summary.Delivered)
	}
	if int64(c.Events["forwarded"]) != res.Raw.ForwardingOps {
		t.Errorf("forwarded: telemetry %d vs metrics %d", c.Events["forwarded"], res.Raw.ForwardingOps)
	}
	var drops uint64
	for _, n := range c.Drops {
		drops += n
	}
	if int(drops) != res.Summary.Generated-res.Summary.Delivered {
		t.Errorf("drops: telemetry %d vs metrics %d", drops, res.Summary.Generated-res.Summary.Delivered)
	}
	if c.Events["queuedepth"] == 0 {
		t.Error("no queue-depth samples at unit boundaries")
	}
}

// TestFixedDstSkipsItsOwnSource checks a packet whose random source is
// the fixed destination gets another destination: no packet is addressed
// to the landmark it starts at.
func TestFixedDstSkipsItsOwnSource(t *testing.T) {
	w := &Workload{Rate: 100, PacketSize: 1, TTL: 1000, FixedDst: 0}
	pkts := w.Schedule(rand.New(rand.NewSource(1)), 0, 2*trace.Day, 2)
	atSink := 0
	for _, p := range pkts {
		if p.Src == p.Dst {
			t.Fatalf("packet %d addressed to its own landmark %d", p.ID, p.Src)
		}
		if p.Src == 0 {
			atSink++
		} else if p.Dst != 0 {
			t.Errorf("packet %d from landmark %d to %d, want the fixed destination 0", p.ID, p.Src, p.Dst)
		}
	}
	if atSink == 0 || atSink == len(pkts) {
		t.Errorf("%d of %d packets start at the fixed destination, want some but not all", atSink, len(pkts))
	}
}
