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
	small, _, _, err := experiment.LoadTrace("small", 0)
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.Meta{Scenario: "small", Nodes: small.NumNodes, Landmarks: small.NumLandmarks}
	if _, err := regretTrace(m, ""); err != nil {
		t.Fatalf("matching recording refused: %v", err)
	}
	if _, err := regretTrace(m, "dnet"); err == nil || !strings.Contains(err.Error(), "nodes") {
		t.Errorf("-trace dnet over a small recording: err = %v, want a population mismatch", err)
	}
	for _, bad := range []telemetry.Meta{
		{Scenario: "small", Nodes: small.NumNodes + 1, Landmarks: small.NumLandmarks},
		{Scenario: "small", Nodes: small.NumNodes, Landmarks: small.NumLandmarks - 1},
	} {
		if _, err := regretTrace(bad, ""); err == nil {
			t.Errorf("recording of %d nodes, %d landmarks accepted on the small trace", bad.Nodes, bad.Landmarks)
		}
	}
}
