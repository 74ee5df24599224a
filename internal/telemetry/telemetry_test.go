package telemetry

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

func TestNilProbeIsZeroAllocNoOp(t *testing.T) {
	var p *Probe
	if p.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Generated(1, 0, 1, 2)
		p.Forwarded(2, HopUpload, 0, 3, 1)
		p.Queued(2, 0, 1, 4)
		p.Delivered(3, 0, 2, 2)
		p.Dropped(4, 1, metrics.DropTTL)
		p.Assigned(5, 0, 1, 2)
		p.Exchange(5, 1, 3, 2)
		p.Recompute(6, 1, 2, 0.5)
		p.Predict(7, 3, 1, 1, true)
		p.QueueDepth(8, 1, 9)
	})
	if allocs != 0 {
		t.Errorf("nil probe allocated %v per run; the disabled path must be alloc-free", allocs)
	}
}

func TestEnabledProbeIsZeroAllocPerEvent(t *testing.T) {
	rec := NewRecorder(1 << 16)
	p := NewProbe(rec)
	allocs := testing.AllocsPerRun(1000, func() {
		p.Forwarded(2, HopUpload, 0, 3, 1)
		p.Delivered(3, 0, 2, 2)
		p.QueueDepth(8, 1, 9)
	})
	if allocs != 0 {
		t.Errorf("enabled probe allocated %v per run; the ring and histograms are preallocated", allocs)
	}
}

func TestRecorderRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	p := NewProbe(rec)
	for i := 0; i < 6; i++ {
		p.Queued(trace.Time(i), i, 0, i)
	}
	if rec.Len() != 4 {
		t.Fatalf("Len = %d, want 4", rec.Len())
	}
	if rec.Overwritten() != 2 {
		t.Errorf("Overwritten = %d, want 2", rec.Overwritten())
	}
	evs := rec.Events(nil)
	for i, ev := range evs {
		if want := trace.Time(i + 2); ev.T != want {
			t.Errorf("event %d at t=%d, want %d (chronological order after wrap)", i, ev.T, want)
		}
	}
	if got := rec.Counters().Events["queued"]; got != 6 {
		t.Errorf("counter survives wrap: queued = %d, want 6", got)
	}
}

// TestRecorderClone checks that a clone carries the recorder's whole
// state and shares nothing written: the same events recorded into the
// original and its clone, across a ring wrap, leave both equal to a
// recorder that saw them all, and a write to one is not seen by the other.
func TestRecorderClone(t *testing.T) {
	record := func(p *Probe, from, to int) {
		for i := from; i < to; i++ {
			p.Queued(trace.Time(i), i, 0, i)
			p.Delivered(trace.Time(i), i, 1, trace.Time(10*i))
			p.QueueDepth(trace.Time(i), 2, i)
		}
	}
	orig, whole := NewRecorder(8), NewRecorder(8)
	record(NewProbe(orig), 0, 2)
	record(NewProbe(whole), 0, 5)
	cp := orig.Clone()
	record(NewProbe(orig), 2, 5)
	record(NewProbe(cp), 2, 5)
	for name, r := range map[string]*Recorder{"original": orig, "clone": cp} {
		if !reflect.DeepEqual(r.Counters(), whole.Counters()) || !reflect.DeepEqual(r.Events(nil), whole.Events(nil)) {
			t.Errorf("%s diverged from the recorder that saw every event:\ngot  %+v\nwant %+v", name, r.Counters(), whole.Counters())
		}
	}
	NewProbe(cp).Delivered(9, 9, 1, 1<<20)
	if !reflect.DeepEqual(orig.Counters(), whole.Counters()) || !reflect.DeepEqual(orig.Events(nil), whole.Events(nil)) {
		t.Error("a write to the clone reached the original")
	}
}

func TestCountersAndHistograms(t *testing.T) {
	rec := NewRecorder(64)
	p := NewProbe(rec)
	p.Predict(1, 0, 1, 1, true)
	p.Predict(2, 0, 2, 3, false)
	p.Predict(3, 0, 3, 3, true)
	p.Dropped(4, 0, metrics.DropTTL)
	p.Dropped(5, 1, metrics.DropNoRoom)
	p.Dropped(6, 2, metrics.DropEnd)
	p.Delivered(7, 3, 1, 100)
	c := rec.Counters()
	if c.PredictHits != 2 || c.PredictMiss != 1 {
		t.Errorf("predict hits/misses = %d/%d, want 2/1", c.PredictHits, c.PredictMiss)
	}
	for _, reason := range []string{"ttl", "noroom", "end"} {
		if c.Drops[reason] != 1 {
			t.Errorf("drops[%s] = %d, want 1", reason, c.Drops[reason])
		}
	}
	if c.Delay.Count != 1 || c.Delay.Sum != 100 {
		t.Errorf("delay hist = %+v", c.Delay)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	rec := NewRecorder(64)
	p := NewProbe(rec)
	p.Generated(10, 0, 1, 2)
	p.Forwarded(11, HopUpload, 0, 5, 3)
	p.Delivered(12, 0, 2, 2)
	meta := Meta{Scenario: "DART", Method: "DTN-FLOW", Seed: 7, Nodes: 48, Landmarks: 24, Unit: trace.Day}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, meta); err != nil {
		t.Fatal(err)
	}
	log, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Meta, meta) {
		t.Errorf("meta round-trip: got %+v, want %+v", log.Meta, meta)
	}
	if !reflect.DeepEqual(log.Events, rec.Events(nil)) {
		t.Errorf("events round-trip: got %+v, want %+v", log.Events, rec.Events(nil))
	}
}

func TestPacketReconstructionAndFlows(t *testing.T) {
	rec := NewRecorder(64)
	p := NewProbe(rec)
	// Packet 0: generated at 0, carried 0 -> 2 -> 1 (dst), delivered.
	p.Generated(0, 0, 0, 1)
	p.Forwarded(1, HopDownload, 0, 0, 9) // station 0 -> node 9
	p.Forwarded(5, HopUpload, 0, 9, 2)   // node 9 -> station 2
	p.Queued(5, 0, 2, 1)
	p.Forwarded(6, HopDownload, 0, 2, 9)
	p.Forwarded(9, HopUpload, 0, 9, 1) // delivers at 1
	p.Delivered(9, 0, 1, 9)
	// Packet 1: generated at 0, dropped on TTL.
	p.Generated(2, 1, 2, 0)
	p.Dropped(8, 1, metrics.DropTTL)

	log := NewLog(rec, Meta{Landmarks: 3})
	pkts := log.Packets()
	if len(pkts) != 2 {
		t.Fatalf("packets = %d, want 2", len(pkts))
	}
	want := []int{0, 2, 1}
	if !reflect.DeepEqual(pkts[0].Stations, want) {
		t.Errorf("packet 0 path = %v, want %v", pkts[0].Stations, want)
	}
	if pkts[0].Status != StatusDelivered || pkts[0].Hops != 4 || pkts[0].Delay != 9 {
		t.Errorf("packet 0 = %+v", pkts[0])
	}
	if pkts[1].Status != StatusDropped || pkts[1].Reason != metrics.DropTTL {
		t.Errorf("packet 1 = %+v", pkts[1])
	}

	flow := log.FlowMatrix()
	if flow[0][2] != 1 || flow[2][1] != 1 {
		t.Errorf("flow matrix = %v", flow)
	}
	links := log.TopLinks(1)
	if len(links) != 1 || links[0] != (Link{From: 0, To: 2, Packets: 1}) {
		t.Errorf("top links = %v", links)
	}
	if hist := log.HopHistogram(); len(hist) != 3 || hist[2] != 1 {
		t.Errorf("hop hist = %v", hist)
	}
	loads := log.LandmarkLoads()
	if loads[1].Delivered != 1 || loads[0].Generated != 1 || loads[2].MaxQueue != 1 {
		t.Errorf("loads = %+v", loads)
	}
}

func TestDecisionEventAndLogReExport(t *testing.T) {
	rec := NewRecorder(64)
	p := NewProbe(rec)
	p.Generated(10, 0, 1, 2)
	p.Decision(11, 0, 1, 2, 0, 3600) // chosen hop
	p.Decision(11, 0, 1, 3, 1, 7200) // runner-up
	p.Delivered(12, 0, 2, 2)
	meta := Meta{Scenario: "DNET", Method: "DTN-FLOW", Seed: 1, Nodes: 34, Landmarks: 18,
		Unit: trace.Day, PacketSize: 1024, LinkRate: 2}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, meta); err != nil {
		t.Fatal(err)
	}
	log, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var decs []Event
	for _, ev := range log.Events {
		if ev.Kind == EvDecision {
			decs = append(decs, ev)
		}
	}
	if len(decs) != 2 || decs[0].Aux != 0 || decs[1].Aux != 1 || decs[0].B != 2 || decs[1].B != 3 {
		t.Fatalf("decision events round-trip: %+v", decs)
	}

	// Log.WriteJSONL must re-export a loaded recording bit for bit.
	var buf2 bytes.Buffer
	if err := log.WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Errorf("re-export differs from original recording")
	}
}
