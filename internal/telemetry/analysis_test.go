package telemetry

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// recordedRun records a small run through an enabled probe, around an
// outage at t=100 and a churn at t=1000 that nothing follows:
//
//   - before the outage: packet 0 is generated at landmark 0, carried
//     0 -> 2 and delivered at 2 after 40 s; packet 1 is generated and
//     dropped on TTL;
//   - in the 100 s after it: two table recomputes (drift 0.5 and 0.25),
//     packet 2 is generated, uploaded at 1 and delivered after 30 s,
//     packet 3 is delivered after 50 s (its generation predates the
//     recording), packet 4 is generated and never finishes;
//   - after the window: packet 5 is delivered after 90,000 s.
func recordedRun() *Recorder {
	rec := NewRecorder(64)
	p := NewProbe(rec)
	p.Generated(20, 0, 0, 2)
	p.Forwarded(30, HopDownload, 0, 0, 7)
	p.Forwarded(55, HopUpload, 0, 7, 2)
	p.Delivered(60, 0, 2, 40)
	p.Generated(50, 1, 1, 0)
	p.Dropped(80, 1, metrics.DropTTL)
	p.Recompute(110, 1, 2, 0.5)
	p.Generated(120, 2, 0, 1)
	p.Assigned(121, 2, 0, 1)
	p.Decision(121, 2, 0, 1, 0, 30)
	p.Forwarded(140, HopUpload, 2, 7, 1)
	p.Delivered(150, 2, 1, 30)
	p.Recompute(150, 0, 1, 0.25)
	p.Delivered(160, 3, 1, 50)
	p.Exchange(170, 0, 7, 2)
	p.Generated(180, 4, 2, 0)
	p.Delivered(400, 5, 1, 90000)
	return rec
}

func recordedMeta(unit trace.Time) Meta {
	return Meta{Scenario: "TINY", Method: "DTN-FLOW", Unit: unit, Disruptions: []Disruption{
		{T: 100, Kind: "outage", A: 1},
		{T: 1000, Kind: "churn", A: 7},
	}}
}

// TestResilienceWindows checks the per-disruption report: recomputes and
// settle time inside the window, and the before/during packet outcomes.
func TestResilienceWindows(t *testing.T) {
	log := NewLog(recordedRun(), recordedMeta(100))
	got := log.Resilience(0) // the meta's unit, 100 s
	want := []DisruptionImpact{
		{
			Disruption: Disruption{T: 100, Kind: "outage", A: 1},
			Recomputes: 2, Settle: 50, TableDrift: 0.75,
			Before: WindowStats{Generated: 2, Delivered: 1, Dropped: 1, Forwarded: 2, MeanDelay: 40},
			During: WindowStats{Generated: 2, Delivered: 2, Forwarded: 1, MeanDelay: 40},
		},
		{Disruption: Disruption{T: 1000, Kind: "churn", A: 7}, Settle: -1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Resilience(0) =\n%+v\nwant\n%+v", got, want)
	}

	// An 11 s window keeps one recompute and no packet outcome.
	short := log.Resilience(11)
	if short[0].Recomputes != 1 || short[0].Settle != 10 || short[0].During != (WindowStats{}) {
		t.Errorf("Resilience(11)[0] = %+v", short[0])
	}

	// Without a unit the window is a day: the churn at 1000 now sees
	// everything from 0 on as its before-window.
	day := NewLog(recordedRun(), recordedMeta(0)).Resilience(0)
	if b := day[1].Before; b.Generated != 4 || b.Delivered != 4 || b.Dropped != 1 {
		t.Errorf("day window before churn = %+v", b)
	}

	if r := NewLog(recordedRun(), Meta{}).Resilience(0); r != nil {
		t.Errorf("Resilience without disruptions = %+v, want nil", r)
	}
}

// TestDelayHistogramBuckets checks delivered delays land in equal-width
// buckets, with a day as the default width.
func TestDelayHistogramBuckets(t *testing.T) {
	log := NewLog(recordedRun(), Meta{})
	counts, width := log.DelayHistogram(25)
	if width != 25 || !reflect.DeepEqual(counts[:3], []int{0, 2, 1}) || len(counts) != 3601 || counts[3600] != 1 {
		t.Errorf("DelayHistogram(25) = width %d, counts[:3] %v, len %d", width, counts[:3], len(counts))
	}
	counts, width = log.DelayHistogram(0)
	if width != trace.Day || !reflect.DeepEqual(counts, []int{3, 1}) {
		t.Errorf("DelayHistogram(0) = %v width %d, want [3 1] width %d", counts, width, trace.Day)
	}
}

// TestRecordedRunInspection runs the remaining inspector views over the
// recording after a JSONL round trip taken from the probe's recorder.
func TestRecordedRunInspection(t *testing.T) {
	rec := recordedRun()
	p := NewProbe(rec)
	if p.Recorder() != rec {
		t.Fatal("Probe.Recorder does not return the backing recorder")
	}
	if (*Probe)(nil).Recorder() != nil {
		t.Fatal("a disabled probe has a recorder")
	}
	var buf bytes.Buffer
	if err := p.Recorder().WriteJSONL(&buf, Meta{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	pt, ok := log.Packet(2)
	if !ok || pt.Status != StatusDelivered || pt.Delay != 30 || pt.Hops != 1 || !reflect.DeepEqual(pt.Stations, []int{0, 1}) {
		t.Errorf("Packet(2) = %+v, %v", pt, ok)
	}
	if _, ok := log.Packet(99); ok {
		t.Error("Packet(99) found a packet that was never recorded")
	}
	statuses := map[string]int{}
	for _, pt := range log.Packets() {
		statuses[pt.Status.String()]++
	}
	if want := map[string]int{"delivered": 4, "dropped": 1, "in-flight": 1}; !reflect.DeepEqual(statuses, want) {
		t.Errorf("statuses = %v, want %v", statuses, want)
	}

	// No landmark count in the meta: it is inferred from the paths.
	if flow := log.FlowMatrix(); len(flow) != 3 || flow[0][2] != 1 || flow[0][1] != 1 {
		t.Errorf("FlowMatrix = %v", flow)
	}

	c := rec.Counters()
	for kind, n := range map[string]uint64{"assigned": 1, "decision": 1, "exchange": 1, "recompute": 2} {
		if c.Events[kind] != n {
			t.Errorf("counter %s = %d, want %d", kind, c.Events[kind], n)
		}
	}
	if EventKind(200).String() != "unknown" || HopKind(9).String() != "unknown" {
		t.Error("out-of-range kinds are not named unknown")
	}
}
