package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWorkloadsSmall runs every workload at its minimum size, traced. It
// checks that each pass reproduces the first one's output, that every
// named metric is emitted with its unit, and that the traced split puts
// each layer where it belongs: stream time only on scale-steady, oracle
// spans only on oracle-bound, time in every method on paper-sweeps.
func TestWorkloadsSmall(t *testing.T) {
	layers := map[string]map[string]float64{}
	for _, def := range workloads {
		out := measure(def.small, def.small, runOpts{seed: 1, seconds: 0, traced: true})
		if out.failed != 0 || out.attempted != 3 {
			t.Fatalf("%s: attempted %d, failed %d: %v", def.name, out.attempted, out.failed, out.failures)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			r := report(out, traced)
			if !r.Correct || len(r.Metrics) != len(defs) {
				t.Fatalf("%s traced=%v: correct %v, %d metrics, want %d", def.name, traced, r.Correct, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", def.name, traced, d.name, m, d.unit)
				}
			}
		}
		for _, m := range []string{"wall_s", "setup_s", "peak_heap_mib", "alloc_mib", "allocs"} {
			if v := out.endToEnd[m]; v <= 0 {
				t.Errorf("%s: %s = %v", def.name, m, v)
			}
		}
		layers[def.name] = out.perLayer
	}

	for name, l := range layers {
		if got := l["synth.next_s"] > 0; got != (name == "scale-steady") {
			t.Errorf("%s: synth.next_s = %v", name, l["synth.next_s"])
		}
		if got := l["oracle.relaxed_s"] > 0 && l["oracle.commit_s"] > 0; got != (name == "oracle-bound") {
			t.Errorf("%s: oracle spans %v / %v", name, l["oracle.relaxed_s"], l["oracle.commit_s"])
		}
		if g := l["packets.generated"]; g != l["packets.delivered"]+l["packets.dropped"] {
			t.Errorf("%s: packets generated %v != delivered %v + dropped %v", name, g, l["packets.delivered"], l["packets.dropped"])
		}
	}
	for _, m := range experiment.MethodNames {
		if l := layers["paper-sweeps"]["method."+m+".run_s"]; l <= 0 {
			t.Errorf("paper-sweeps: method.%s.run_s = %v", m, l)
		}
	}
	if l := layers["scale-steady"]; l["sim.epochs"] == 0 || l["predict.hits"] == 0 || l["routing.recomputes"] == 0 {
		t.Errorf("scale-steady: epochs %v, predict hits %v, recomputes %v", l["sim.epochs"], l["predict.hits"], l["routing.recomputes"])
	}
}

// TestTamperedPin checks that a pinned fingerprint that does not match is
// reported as failed operations in the result line.
func TestTamperedPin(t *testing.T) {
	def, err := lookupWorkload("oracle-bound")
	if err != nil {
		t.Fatal(err)
	}
	_, fp, err := onePass(def.small, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := measure(def.small, def.small, runOpts{seed: 7, pin: fp}); out.failed != 0 {
		t.Fatalf("true pin: %v", out.failures)
	}
	out := measure(def.small, def.small, runOpts{seed: 7, pin: strings.Repeat("0", len(fp))})
	if passes := len(out.walls); out.failed != passes {
		t.Fatalf("tampered pin: failed %d of %d timed passes", out.failed, passes)
	}

	blob, err := json.Marshal(report(out, false))
	if err != nil {
		t.Fatal(err)
	}
	var r map[string]json.RawMessage
	if err := json.Unmarshal(blob, &r); err != nil {
		t.Fatal(err)
	}
	if len(r) != 4 || string(r["correct"]) != "false" || string(r["failed"]) == "0" || r["attempted"] == nil || r["metrics"] == nil {
		t.Fatalf("result line %s", blob)
	}
}

// TestPins checks that every workload has a pin for the default seed and
// for the held-out seed.
func TestPins(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		for _, seed := range []int64{1, heldOutSeed} {
			if p.lookup(def.name, seed) == "" {
				t.Errorf("%s: no pin for seed %d", def.name, seed)
			}
		}
	}
}

// TestSourceWrapperForwardsSpanner checks that the traced source is a
// trace.Spanner exactly when the wrapped one is, so the sharded engine
// opens a second stream for a span scan only when it would untraced.
func TestSourceWrapperForwardsSpanner(t *testing.T) {
	tr := tinyScenario("DART").Trace
	opens := 0
	open := newTracer().source(func() trace.Source {
		opens++
		return trace.NewSliceSource(tr, 0)
	})
	if _, ok := open().(trace.Spanner); !ok {
		t.Fatal("wrapped SliceSource lost trace.Spanner")
	}
	opens = 0
	if _, err := sim.NewSharded(open, experiment.NewRouter("DTN-FLOW"), nil, sim.DefaultConfig(tr.Duration()), sim.ShardConfig{}); err != nil {
		t.Fatal(err)
	}
	if opens != 1 {
		t.Errorf("NewSharded opened %d sources, want 1", opens)
	}

	sp := experiment.ScaleSpec{Scenario: "DART"}
	dart, err := sp.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, inner := dart().(trace.Spanner)
	if _, ok := newTracer().source(dart)().(trace.Spanner); ok != inner {
		t.Errorf("wrapped DART source Spanner = %v, inner = %v", ok, inner)
	}
}

// TestRouterWrapperForwardsCloner checks that the traced router is a
// sim.Cloner exactly when the wrapped one is.
func TestRouterWrapperForwardsCloner(t *testing.T) {
	tc := newTracer()
	for _, m := range experiment.MethodNames {
		_, inner := experiment.NewRouter(m).(sim.Cloner)
		if _, ok := tc.router(m, newRouter(m))().(sim.Cloner); ok != inner || !ok {
			t.Errorf("%s: wrapped Cloner = %v, inner = %v", m, ok, inner)
		}
	}
	plain := struct{ sim.Router }{experiment.NewRouter("DTN-FLOW")}
	if _, ok := tc.router("plain", func() sim.Router { return plain })().(sim.Cloner); ok {
		t.Error("wrapper claims sim.Cloner for a router without it")
	}
}

// TestTinyScenarioMatchesSuite checks that the per-pass scenario rebuild
// reproduces the experiment suite's memoized Tiny scenarios.
func TestTinyScenarioMatchesSuite(t *testing.T) {
	for kind, want := range map[string]*experiment.Scenario{
		"DART": experiment.DARTScenario(experiment.Tiny),
		"DNET": experiment.DNETScenario(experiment.Tiny),
	} {
		got := tinyScenario(kind)
		gs, ws := *got, *want
		gs.Trace, ws.Trace = nil, nil
		g, w := got.Trace, want.Trace
		if gs != ws || g.Name != w.Name || g.NumNodes != w.NumNodes || g.NumLandmarks != w.NumLandmarks ||
			!reflect.DeepEqual(g.Visits, w.Visits) || !reflect.DeepEqual(g.Positions, w.Positions) {
			t.Errorf("%s: rebuilt scenario differs from the suite's", kind)
		}
	}
}

// TestSpeedSampler checks that the sampler's table is one cycle through
// every slot, so each hop leaves the cache, and that a window's factor is
// a positive finite scale.
func TestSpeedSampler(t *testing.T) {
	mem, next, err := newChase()
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Munmap(mem)
	p, n := next[0], 1
	for ; p != 0 && n <= chaseLen; n++ {
		p = next[p]
	}
	if n != chaseLen {
		t.Fatalf("cycle through slot 0 has length %d, want %d", n, chaseLen)
	}

	sp, err := startSampler()
	if err != nil {
		t.Fatal(err)
	}
	m := sp.mark()
	time.Sleep(3 * samplePeriod)
	f := sp.factor(m)
	sp.end()
	if !(f > 0 && f < 100) {
		t.Fatalf("factor %v", f)
	}
}
