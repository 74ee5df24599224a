package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
)

// TestRhoOutOfRangeMeansDefault: a ρ outside (0, 1] means the paper's 0.5
// for both of its readers, the bandwidth EWMA and the load-balancing rate
// fold. With load balancing on, Tiny DART reads both, so ρ = 0 and ρ = 2
// must give the summary of ρ = 0.5 exactly.
func TestRhoOutOfRangeMeansDefault(t *testing.T) {
	sc := experiment.DARTScenario(experiment.Tiny)
	run := func(rho float64) any {
		cfg := core.DefaultConfig()
		cfg.LoadBalance = true
		cfg.Rho = rho
		simCfg, w := sc.Setup(1, 0, 0)
		return sim.New(sc.Trace, core.New(cfg), w, simCfg).Run().Summary
	}
	want := run(0.5)
	for _, rho := range []float64{0, 2} {
		if got := run(rho); !reflect.DeepEqual(got, want) {
			t.Errorf("ρ = %v: summary %+v, want ρ = 0.5's %+v", rho, got, want)
		}
	}
}
