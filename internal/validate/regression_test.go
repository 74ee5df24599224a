package validate

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestShrunkRegressions replays every shrunk counterexample the property
// fuzzer has produced against a real (since fixed or reverted) bug, kept
// under testdata/regressions. Each file is a ScenarioSpec in JSON with a
// note on what it once caught; all fuzzer properties must hold on it now
// and forever.
//
// The first entry, buffer-overflow-offbyone.json, was minimized by the
// fuzzer from an 11-node 6-day scenario down to 2 nodes over 2 days at 4
// packets/day after an off-by-one was planted in sim.Buffer.Add (admit
// while used <= capacity instead of checking the fit): the invariant
// checker flagged "station holds 2048 bytes over capacity 1024" within
// 60 random specs and 22 shrink steps.
func TestShrunkRegressions(t *testing.T) {
	dir := filepath.Join("testdata", "regressions")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	ran := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		ran++
		t.Run(e.Name(), func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				Note string       `json:"note"`
				Spec ScenarioSpec `json:"spec"`
			}
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatalf("bad regression file: %v", err)
			}
			spec := rec.Spec.Normalize()
			if prop, detail := CheckSpec(spec); prop != "" {
				t.Errorf("property %q failed on %v: %s\n(%s)", prop, spec, detail, rec.Note)
			}
		})
	}
	if ran == 0 {
		t.Fatal("no regression specs found")
	}
}
