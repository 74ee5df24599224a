package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

func smallEngine(t *testing.T, cfg Config, rate float64) (*sim.Engine, *Router) {
	t.Helper()
	tr := synth.Small(synth.DefaultSmall())
	scfg := sim.DefaultConfig(tr.Duration())
	scfg.TTL = 2 * trace.Day
	scfg.Unit = 12 * trace.Hour
	r := New(cfg)
	w := sim.NewWorkload(rate, scfg.PacketSize, scfg.TTL)
	return sim.New(tr, r, w, scfg), r
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Order != 1 || !cfg.UseAccuracy || !cfg.DirectDelivery || !cfg.HoldOnWorse {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.DeadEnd || cfg.LoopFix || cfg.LoadBalance {
		t.Error("extensions must default off (evaluated separately, Section V-B)")
	}
	full := FullConfig()
	if !full.DeadEnd || !full.LoopFix || !full.LoadBalance {
		t.Error("FullConfig must enable the extensions")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() interface{} {
		eng, _ := smallEngine(t, DefaultConfig(), 150)
		return eng.Run().Summary
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("two identical runs differ")
	}
}

func TestUploadEligibility(t *testing.T) {
	eng, r := smallEngine(t, DefaultConfig(), 0)
	ctx := eng.Context()
	r.Init(ctx)
	ns := r.nodes[0]
	p := &sim.Packet{ID: 1, Src: 0, Dst: 3, NextHop: 2, ExpDelay: 1000}
	// Destination landmark: always eligible.
	if !r.uploadEligible(ns, p, 3) {
		t.Error("not eligible at destination")
	}
	// Assigned next hop: eligible.
	if !r.uploadEligible(ns, p, 2) {
		t.Error("not eligible at next hop")
	}
	// Elsewhere with no better delay: hold.
	if r.uploadEligible(ns, p, 1) {
		t.Error("eligible at a landmark with unknown (infinite) delay")
	}
	// Dead end overrides.
	ns.deadEnded = true
	if !r.uploadEligible(ns, p, 1) {
		t.Error("dead end must force eligibility")
	}
	ns.deadEnded = false
	// HoldOnWorse off uploads unconditionally.
	r.cfg.HoldOnWorse = false
	if !r.uploadEligible(ns, p, 1) {
		t.Error("HoldOnWorse=false must upload")
	}
}

// TestFig9LoopScenario reproduces the mechanism of Fig. 9: a stale
// distance vector creates a routing loop for one destination; packets
// record their landmark path, the loop is detected when a packet revisits
// a landmark, and the correction protocol (forced re-advertisement among
// the involved landmarks) breaks the loop.
func TestFig9LoopScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoopFix = true
	eng, r := smallEngine(t, cfg, 150)
	ctx := eng.Context()
	start, _ := ctx.Trace.Span()
	var members []int
	dest := 3
	ctx.Schedule(start+ctx.Cfg.Warmup+ctx.Cfg.Unit, func() {
		members = r.InjectLoop(dest)
		if members == nil {
			t.Error("no loop injected")
			return
		}
		if !r.HasLoop(members[0], dest) {
			t.Error("injection did not create a loop")
		}
	})
	res := eng.Run()
	if members == nil {
		t.Fatal("injection never ran")
	}
	if r.HasLoop(members[0], dest) {
		t.Error("loop not corrected by the end of the run")
	}
	if res.Summary.SuccessRate < 0.5 {
		t.Errorf("success %.2f collapsed despite correction", res.Summary.SuccessRate)
	}
}

// TestFig9LoopPersistsWithoutCorrection is the ORG side: without LoopFix
// the injected loop persists to the end of the run.
func TestFig9LoopPersistsWithoutCorrection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoopFix = false
	eng, r := smallEngine(t, cfg, 150)
	ctx := eng.Context()
	start, _ := ctx.Trace.Span()
	var members []int
	dest := 3
	ctx.Schedule(start+ctx.Cfg.Warmup+ctx.Cfg.Unit, func() {
		members = r.InjectLoop(dest)
	})
	eng.Run()
	if members == nil {
		t.Skip("no loop could be injected on this trace")
	}
	if !r.HasLoop(members[0], dest) {
		t.Error("injected loop resolved itself without correction; injection too weak")
	}
}

// TestFig10LoadBalance reproduces the mechanism of Fig. 10: when the
// incoming rate of a link exceeds theta times its outgoing rate, packets
// divert to the backup next hop.
func TestFig10LoadBalance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadBalance = true
	eng, r := smallEngine(t, cfg, 0)
	ctx := eng.Context()
	r.Init(ctx)
	ls := r.landmarks[0]
	// Build a table where dest 3 is reachable via 1 (delay 10) with
	// backup 2 (delay 20).
	ls.table.SetLinkDelay(1, 5)
	ls.table.SetLinkDelay(2, 10)
	v1 := make([]float64, ctx.NumLandmarks())
	v2 := make([]float64, ctx.NumLandmarks())
	for i := range v1 {
		v1[i], v2[i] = 1e308, 1e308
	}
	v1[3], v2[3] = 5, 10
	ls.table.MergeVector(1, v1, 1)
	ls.table.MergeVector(2, v2, 1)

	p := &sim.Packet{ID: 0, Src: 0, Dst: 3, DstNode: -1, Size: 1, Expiry: 1 << 40, NextHop: -1}
	if target, _ := r.route(ctx, 0, p, 0); target != 1 {
		t.Fatalf("unloaded route = %d, want 1", target)
	}
	// Overload link 0->1: many packets assigned, none sent.
	ls.lbAssigned[1] = 100
	ls.lbSent[1] = 1
	if target, _ := r.route(ctx, 0, p, 0); target != 2 {
		t.Errorf("overloaded route = %d, want backup 2", target)
	}
	// If the backup is also overloaded, stay on the primary.
	ls.lbAssigned[2] = 100
	ls.lbSent[2] = 1
	if target, _ := r.route(ctx, 0, p, 0); target != 1 {
		t.Errorf("route with both overloaded = %d, want primary 1", target)
	}
}

func TestExtensionsImproveOrKeepSuccess(t *testing.T) {
	base, _ := smallEngine(t, DefaultConfig(), 150)
	full, _ := smallEngine(t, FullConfig(), 150)
	b := base.Run().Summary
	f := full.Run().Summary
	if f.SuccessRate < b.SuccessRate-0.05 {
		t.Errorf("extensions dropped success from %.3f to %.3f", b.SuccessRate, f.SuccessRate)
	}
}

func TestNodeRoutingDelivers(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	scfg := sim.DefaultConfig(tr.Duration())
	scfg.TTL = 2 * trace.Day
	scfg.Unit = 12 * trace.Hour
	cfg := DefaultConfig()
	cfg.NodeRouting = true
	r := New(cfg)
	w := sim.NewWorkload(100, scfg.PacketSize, scfg.TTL)
	w.DstNodes = []int{0, 1, 2}
	res := sim.New(tr, r, w, scfg).Run()
	if res.Summary.Generated == 0 {
		t.Fatal("nothing generated")
	}
	if res.Summary.SuccessRate < 0.5 {
		t.Errorf("node-routing success = %.2f", res.Summary.SuccessRate)
	}
}

func TestAccuracyTracksPredictions(t *testing.T) {
	eng, r := smallEngine(t, DefaultConfig(), 0)
	eng.Run()
	// After a full run, accuracies must have moved off the initial 0.5
	// for nodes with regular mobility.
	moved := 0
	for n := range r.nodes {
		if r.Accuracy(n) != 0.5 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no accuracy tracker ever updated")
	}
}

func TestDeadEndTimerFiresOnLongStay(t *testing.T) {
	// Hand-built trace: node 0 commutes 0->1->0->1... then parks at
	// landmark 2 for a very long stay while holding a packet.
	tr := &trace.Trace{Name: "DE", NumNodes: 2, NumLandmarks: 4}
	tm := trace.Time(0)
	for i := 0; i < 30; i++ {
		tr.Visits = append(tr.Visits, trace.Visit{Node: 0, Landmark: i % 2, Start: tm, End: tm + 100})
		tm += 150
	}
	parkStart := tm
	tr.Visits = append(tr.Visits, trace.Visit{Node: 0, Landmark: 2, Start: parkStart, End: parkStart + 100000})
	// A second node visits landmark 2 later, so dumped packets can move.
	tr.Visits = append(tr.Visits, trace.Visit{Node: 1, Landmark: 2, Start: parkStart + 5000, End: parkStart + 6000})
	tr.SortVisits()

	cfg := DefaultConfig()
	cfg.DeadEnd = true
	cfg.Gamma = 2
	r := New(cfg)
	scfg := sim.Config{Seed: 1, PacketSize: 1, NodeMemory: 1000, TTL: 1 << 40, Unit: 2000, LinkRate: 10}
	eng := sim.New(tr, r, nil, scfg)
	ctx := eng.Context()
	// Plant a packet on node 0 mid-run: schedule right before parking.
	p := &sim.Packet{ID: 0, Src: 0, Dst: 3, DstNode: -1, Size: 1, Created: 0, Expiry: 1 << 40, NextHop: -1, ExpDelay: 1}
	ctx.Schedule(parkStart-10, func() { ctx.Nodes[0].Buffer.Add(p) })
	eng.Run()
	// Node 0 keeps the packet unless the dead end fires and hands it to
	// the station: the second node arrives long after the parking began.
	if ctx.Nodes[0].Buffer.Len() != 0 {
		t.Error("dead end never fired: the parked node still holds the packet")
	}
}
