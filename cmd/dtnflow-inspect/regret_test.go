package main

import (
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/telemetry"
)

// TestRegretTraceRejectsMismatch checks -regret refuses to join a
// recording against a rebuilt trace of another population: node and
// landmark IDs would name different places, and the regret it printed
// could even come out negative.
func TestRegretTraceRejectsMismatch(t *testing.T) {
	sc, err := experiment.LoadTrace("small", 0)
	if err != nil {
		t.Fatal(err)
	}
	small := sc.Trace
	m := telemetry.Meta{Scenario: "small", Nodes: small.NumNodes, Landmarks: small.NumLandmarks}
	if _, err := regretScenario(m, ""); err != nil {
		t.Fatalf("matching recording refused: %v", err)
	}
	if _, err := regretScenario(m, "dnet"); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("-trace dnet over a small recording: err = %v, want a population mismatch", err)
	}
	for _, bad := range []telemetry.Meta{
		{Scenario: "small", Nodes: small.NumNodes + 1, Landmarks: small.NumLandmarks},
		{Scenario: "small", Nodes: small.NumNodes, Landmarks: small.NumLandmarks - 1},
	} {
		if _, err := regretScenario(bad, ""); err == nil {
			t.Errorf("recording of %d nodes, %d landmarks accepted on the small trace", bad.Nodes, bad.Landmarks)
		}
	}
}

// TestRegretConfigFallsBackToCatalogue checks a recording whose meta
// carries no node memory is replayed at its scenario's catalogue memory,
// the regime the run had: on DNET that is Memory(2000), 2000 kB over
// MemDiv 60, not the engine's raw 2000 kB.
func TestRegretConfigFallsBackToCatalogue(t *testing.T) {
	sc, err := experiment.LoadTrace("dnet", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.Meta{Scenario: "dnet", Seed: 1, Nodes: sc.Trace.NumNodes, Landmarks: sc.Trace.NumLandmarks}
	if got := regretConfig(m, sc).NodeMemory; got != 34133 || got != sc.Memory(2000) {
		t.Errorf("fallback node memory %d B, want Memory(2000) = 34133 B", got)
	}
	m.NodeMemory = 4096
	if got := regretConfig(m, sc).NodeMemory; got != 4096 {
		t.Errorf("recorded node memory replaced: %d B, want 4096", got)
	}
}
