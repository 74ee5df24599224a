package oracle

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// replayTrace is a 2-landmark trace: one node carries L0 -> L1.
func replayTrace() *trace.Trace {
	return &trace.Trace{Name: "replay", NumNodes: 1, NumLandmarks: 2, Visits: []trace.Visit{
		{Node: 0, Landmark: 0, Start: 0, End: 10},
		{Node: 0, Landmark: 1, Start: 20, End: 30},
	}}
}

// outOfRangeJSONL is a recording whose decision row names landmark 7 on
// the 2-landmark replayTrace.
const outOfRangeJSONL = `{"meta":{"scenario":"","method":"","seed":0,"nodes":1,"landmarks":2,"unit":0,"ttl":100,"warmup":0}}
{"t":0,"k":0,"p":1,"a":0,"b":1}
{"t":5,"k":10,"p":1,"a":7,"b":1}
`

// TestRegretOutOfRangeDecision: decision rows whose landmark, next hop
// or destination lies outside the trace are skipped, not replayed.
func TestRegretOutOfRangeDecision(t *testing.T) {
	log, err := telemetry.ReadJSONL(bytes.NewReader([]byte(outOfRangeJSONL)))
	if err != nil {
		t.Fatal(err)
	}
	rep := Regret(log, replayTrace(), Config{LinkRate: 1})
	if rep.Decisions != 0 || rep.Skipped != 1 {
		t.Fatalf("landmark 7: replayed %d, skipped %d; want 0 replayed, 1 skipped", rep.Decisions, rep.Skipped)
	}

	ev := func(k telemetry.EventKind, pkt, a, b int32) telemetry.Event {
		return telemetry.Event{T: 1, Kind: k, Pkt: pkt, A: a, B: b}
	}
	log = &telemetry.Log{Events: []telemetry.Event{
		ev(telemetry.EvGenerated, 1, 0, 1),
		ev(telemetry.EvGenerated, 2, 0, 9), // destination outside the trace
		ev(telemetry.EvDecision, 1, -1, 1),
		ev(telemetry.EvDecision, 1, 0, 2),
		ev(telemetry.EvDecision, 2, 0, 1),
		ev(telemetry.EvDecision, 3, 0, 1), // no generation event
		ev(telemetry.EvDecision, 1, 0, 1),
	}}
	rep = Regret(log, replayTrace(), Config{LinkRate: 1})
	if rep.Decisions != 1 || rep.Skipped != 4 {
		t.Fatalf("replayed %d, skipped %d; want 1 replayed, 4 skipped", rep.Decisions, rep.Skipped)
	}
	if lr := rep.Landmarks; len(lr) != 1 || lr[0].Agree != 1 {
		t.Fatalf("the in-range decision L0 -> L1 is optimal; got %+v", lr)
	}
}

// FuzzRegretReplay: any bytes that decode as a recording must replay
// against a trace without panicking, whatever landmark ids, times or
// packet ids they carry.
func FuzzRegretReplay(f *testing.F) {
	f.Add([]byte(outOfRangeJSONL))
	tr := replayTrace()
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := telemetry.ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		Regret(log, tr, Config{LinkRate: 1, Workers: 1})
	})
}
