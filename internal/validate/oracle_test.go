package validate

import (
	"math/rand"
	"testing"

	"repro/internal/disrupt"
	"repro/internal/experiment"
)

// TestOracleDominanceRandom runs the dominance property over a batch of
// random specs (steady-state and disrupted), independent of the full
// fuzz campaign's property ordering.
func TestOracleDominanceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 12
	if testing.Short() {
		n = 4
	}
	for i := 0; i < n; i++ {
		s := RandomSpec(rng)
		if d := propOracleDominance(s); d != "" {
			t.Fatalf("spec %d: %s\n  repro: %v", i, d, s)
		}
	}
}

// TestOracleDominanceBatteryItem exercises the battery form directly
// (the full battery skips under -short): the bound must dominate
// DTN-FLOW on the smaller Tiny scenario, steady and storm-disrupted.
func TestOracleDominanceBatteryItem(t *testing.T) {
	sc := experiment.BothScenarios(experiment.Tiny)[1] // DNET: the cheaper of the two
	methods := []string{"DTN-FLOW"}

	it := oracleDominanceItem(sc, sc.Trace, nil, sc.RateDef, methods)
	if !it.Pass {
		t.Fatalf("%s: %s", it.Name, it.Detail)
	}

	sp, err := disrupt.Preset("storm", sc.Trace.NumNodes, sc.Trace.NumLandmarks, 0, sc.Trace.Duration())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := disrupt.Perturb(sc.Trace, &sp)
	if err != nil {
		t.Fatal(err)
	}
	it = oracleDominanceItem(sc, tr, &sp, sc.RateDef, methods)
	if !it.Pass {
		t.Fatalf("%s: %s", it.Name, it.Detail)
	}
}
