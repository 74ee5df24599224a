package validate

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestBatteryTiny is the executable acceptance criterion of the
// validation layer: the full battery — O1–O4 on both scenario traces,
// invariants plus telemetry cross-checks under every method,
// checker-neutrality and fork-equivalence — must pass on Tiny scale with
// zero violations.
func TestBatteryTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("battery runs every method on both Tiny scenarios")
	}
	rep := RunBattery(BatteryOptions{Scale: experiment.Tiny, Log: t.Logf})
	for _, it := range rep.Items {
		if !it.Pass {
			t.Errorf("FAIL %s: %s", it.Name, it.Detail)
		}
	}
	var buf bytes.Buffer
	rep.Print(&buf)
	t.Logf("\n%s", buf.String())
	// Per scenario: 4 observation checks, then per method the 3 core
	// items (invariants, neutrality, fork) plus the 3 disrupted presets,
	// plus the steady and storm oracle-dominance items.
	if want := (len(experiment.MethodNames)*(3+3) + 4 + 2) * 2; len(rep.Items) != want {
		t.Errorf("battery ran %d items, want %d", len(rep.Items), want)
	}
	if !strings.Contains(buf.String(), "checks passed") {
		t.Error("report missing summary line")
	}
}

// TestObservationsRejectUniformTrace pins the discriminating power of the
// O1/O2 checks: a structureless trace (every node visiting uniformly at
// random) must fail them, otherwise the thresholds are vacuous.
func TestObservationsRejectUniformTrace(t *testing.T) {
	tr := uniformTrace(40, 8, 6)
	o1 := CheckO1(tr)
	o2 := CheckO2(tr, tr.Duration()/12)
	if o1.Pass && o2.Pass {
		t.Fatalf("uniform trace passed both O1 (%v) and O2 (%v); thresholds are vacuous", o1, o2)
	}
}
