package experiment

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryProbeInvisible checks the overhead contract from the other
// side: attaching a probe must not change simulation results. The probe
// only observes — same RNG draws, same event order, same summary.
func TestTelemetryProbeInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	sc := DARTScenario(Tiny)
	for _, m := range []string{"DTN-FLOW", "PROPHET"} {
		off := Run{Scenario: sc, Router: routerFactory(m), Seed: 1}.Execute()
		rec := telemetry.NewRecorder(0)
		on := Run{Scenario: sc, Router: routerFactory(m), Seed: 1, Probe: telemetry.NewProbe(rec)}.Execute()
		if !reflect.DeepEqual(off, on) {
			t.Errorf("%s: probe changed results:\noff: %+v\non:  %+v", m, off, on)
		}
		if rec.Len() == 0 {
			t.Errorf("%s: enabled probe recorded nothing", m)
		}
	}
}

// TestTelemetryReconstructsRun records a Tiny-DART DTN-FLOW run, round-
// trips it through the JSONL export, and checks the inspector's
// reconstruction against the run's own metrics: every counted packet
// appears, delivered paths start at the source and end at the
// destination, and the flow matrix accounts every inter-landmark hop.
func TestTelemetryReconstructsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	sc := DARTScenario(Tiny)
	rec := telemetry.NewRecorder(0)
	sum := Run{Scenario: sc, Router: routerFactory("DTN-FLOW"), Seed: 1, Probe: telemetry.NewProbe(rec)}.Execute()

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, RunMeta(sc.Name, "DTN-FLOW", sc.Trace, sc.Config(1))); err != nil {
		t.Fatal(err)
	}
	log, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta.Scenario != "DART" || log.Meta.Landmarks != sc.Trace.NumLandmarks {
		t.Errorf("meta = %+v", log.Meta)
	}

	// The workload only generates after warmup, so the telemetry totals
	// must equal the measured metrics exactly.
	c := rec.Counters()
	if int(c.Events["generated"]) != sum.Generated {
		t.Errorf("generated: telemetry %d vs metrics %d", c.Events["generated"], sum.Generated)
	}
	if int(c.Events["delivered"]) != sum.Delivered {
		t.Errorf("delivered: telemetry %d vs metrics %d", c.Events["delivered"], sum.Delivered)
	}

	pkts := log.Packets()
	delivered, hops := 0, 0
	for _, pt := range pkts {
		if pt.Status != telemetry.StatusDelivered {
			continue
		}
		delivered++
		if len(pt.Stations) == 0 || pt.Stations[0] != pt.Src {
			t.Fatalf("packet %d path %v does not start at src %d", pt.ID, pt.Stations, pt.Src)
		}
		if last := pt.Stations[len(pt.Stations)-1]; last != pt.Dst {
			t.Fatalf("packet %d path %v does not end at dst %d", pt.ID, pt.Stations, pt.Dst)
		}
		hops += len(pt.Stations) - 1
	}
	if delivered != sum.Delivered {
		t.Errorf("reconstructed %d delivered packets, metrics counted %d", delivered, sum.Delivered)
	}

	flow := log.FlowMatrix()
	if len(flow) != sc.Trace.NumLandmarks {
		t.Fatalf("flow matrix is %d wide, want %d", len(flow), sc.Trace.NumLandmarks)
	}
	total := 0
	for i, row := range flow {
		if flow[i][i] != 0 {
			t.Errorf("flow[%d][%d] = %d; self-loops should not occur", i, i, flow[i][i])
		}
		for _, n := range row {
			total += n
		}
	}
	// The matrix also counts hops of dropped/in-flight packets, so it is
	// at least the delivered hop total and positive.
	if total < hops || total == 0 {
		t.Errorf("flow total %d < delivered hop total %d", total, hops)
	}

	if links := log.TopLinks(5); len(links) == 0 || links[0].Packets <= 0 {
		t.Errorf("top links empty: %v", links)
	}

	// A single packet's lifecycle is retrievable by ID.
	var probeID = -1
	for _, pt := range pkts {
		if pt.Status == telemetry.StatusDelivered && len(pt.Stations) >= 3 {
			probeID = pt.ID
			break
		}
	}
	if probeID >= 0 {
		pt, ok := log.Packet(probeID)
		if !ok || pt.Hops == 0 || pt.Delay <= 0 {
			t.Errorf("packet %d lookup = %+v, ok=%v", probeID, pt, ok)
		}
	}
}

// TestTelemetryExportLossless checks that a recording replayed from disk
// is indistinguishable from the live recorder: every inspector view —
// packet reconstructions, the flow matrix, the congested-link ranking —
// computed from the JSONL round-trip equals the same view computed from
// the in-memory log. This pins the export format: a field the encoder
// drops or truncates would skew a replayed analysis.
func TestTelemetryExportLossless(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Tiny simulation")
	}
	sc := DNETScenario(Tiny)
	rec := telemetry.NewRecorder(0)
	Run{Scenario: sc, Router: routerFactory("DTN-FLOW"), Seed: 3, Probe: telemetry.NewProbe(rec)}.Execute()

	meta := RunMeta(sc.Name, "DTN-FLOW", sc.Trace, sc.Config(3))
	live := telemetry.NewLog(rec, meta)

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf, meta); err != nil {
		t.Fatal(err)
	}
	replayed, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(replayed.Meta, live.Meta) {
		t.Errorf("meta differs after round-trip:\nlive:     %+v\nreplayed: %+v", live.Meta, replayed.Meta)
	}
	if !reflect.DeepEqual(replayed.Events, live.Events) {
		t.Fatalf("event stream differs after round-trip (%d vs %d events)",
			len(replayed.Events), len(live.Events))
	}
	if !reflect.DeepEqual(replayed.Packets(), live.Packets()) {
		t.Errorf("packet reconstruction differs after round-trip")
	}
	if !reflect.DeepEqual(replayed.FlowMatrix(), live.FlowMatrix()) {
		t.Errorf("flow matrix differs after round-trip")
	}
	if !reflect.DeepEqual(replayed.TopLinks(10), live.TopLinks(10)) {
		t.Errorf("top links differ after round-trip:\nlive:     %v\nreplayed: %v",
			live.TopLinks(10), replayed.TopLinks(10))
	}
}
