package experiment

import (
	"testing"

	"repro/internal/disrupt"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestScaleDims pins the scaling contract: nodes multiply, landmarks never
// do, and the DNET route count stays below the stop count.
func TestScaleDims(t *testing.T) {
	base := synth.DefaultDART()
	for _, mult := range []int{1, 4, 32} {
		n, l, err := ScaleSpec{Scenario: "DART", Mult: mult}.Dims()
		if err != nil {
			t.Fatal(err)
		}
		if n != base.Nodes*mult {
			t.Errorf("DART %d×: %d nodes, want %d", mult, n, base.Nodes*mult)
		}
		if l != base.Landmarks {
			t.Errorf("DART %d×: %d landmarks, want %d (landmarks never scale)", mult, l, base.Landmarks)
		}
	}
	if n, _, _ := (ScaleSpec{Scenario: "DART", Mult: 32}).Dims(); n != 10240 {
		t.Errorf("32× DART = %d nodes, want 10240", n)
	}

	dn := synth.DefaultDNET()
	for _, mult := range []int{1, 8, 32} {
		spec := ScaleSpec{Scenario: "DNET", Mult: mult}
		n, l, err := spec.Dims()
		if err != nil {
			t.Fatal(err)
		}
		if n != dn.Buses*mult || l != dn.Landmarks {
			t.Errorf("DNET %d×: dims (%d,%d), want (%d,%d)", mult, n, l, dn.Buses*mult, dn.Landmarks)
		}
		if r := spec.dnetConfig().Routes; r > dn.Landmarks/2 {
			t.Errorf("DNET %d×: %d routes exceeds %d stops/2 — empty routes", mult, r, dn.Landmarks)
		}
	}

	if _, _, err := (ScaleSpec{Scenario: "CAMPUS"}).Dims(); err == nil {
		t.Error("unknown scenario accepted")
	}
	if _, err := (ScaleSpec{Scenario: "CAMPUS"}).Open(); err == nil {
		t.Error("Open accepted unknown scenario")
	}
}

// materializedRun drains the spec's stream into a trace and runs it
// through sim.New — the reference the scale path must reproduce — and
// returns the summary and the visit count.
func materializedRun(t *testing.T, spec ScaleSpec, method string) (metrics.Summary, int) {
	t.Helper()
	open, err := spec.Open()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := spec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Materialize(open())
	if err != nil {
		t.Fatal(err)
	}
	return sim.New(tr, NewRouter(method), wl, cfg).Run().Summary, len(tr.Visits)
}

// TestScaleStreamMatchesMaterializedDNET is the scale tier's end-to-end A/B:
// the streaming path reproduces sim.New over the materialized stream bit
// for bit, through the real routers.
func TestScaleStreamMatchesMaterializedDNET(t *testing.T) {
	spec := ScaleSpec{Scenario: "DNET", Mult: 1}
	for _, method := range []string{"DTN-FLOW", "PROPHET"} {
		want, visits := materializedRun(t, spec, method)
		streamed, err := spec.RunSharded(method, sim.ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if streamed.Summary != want {
			t.Errorf("%s: summaries differ:\nstreamed     %+v\nmaterialized %+v", method, streamed.Summary, want)
		}
		if streamed.Visits != visits {
			t.Errorf("%s: streamed run saw %d visits, materialized trace has %d", method, streamed.Visits, visits)
		}
		if streamed.Events <= streamed.Visits {
			t.Errorf("%s: implausible event count %d for %d visits", method, streamed.Events, streamed.Visits)
		}
		if streamed.PeakHeap == 0 || streamed.WallSec <= 0 {
			t.Errorf("%s: missing measurements: %+v", method, streamed)
		}
	}
}

// TestScaleStreamMatchesMaterializedDART covers the DART family at 1× — the
// full paper population — so it only runs in long mode.
func TestScaleStreamMatchesMaterializedDART(t *testing.T) {
	if testing.Short() {
		t.Skip("full-population DART A/B; run without -short")
	}
	spec := ScaleSpec{Scenario: "DART", Mult: 1}
	want, visits := materializedRun(t, spec, "DTN-FLOW")
	streamed, err := spec.RunSharded("DTN-FLOW", sim.ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Summary != want {
		t.Errorf("summaries differ:\nstreamed     %+v\nmaterialized %+v", streamed.Summary, want)
	}
	if streamed.Visits != visits {
		t.Errorf("streamed run saw %d visits, materialized trace has %d", streamed.Visits, visits)
	}
}

// TestScaleSpanWithoutScan checks the scale path takes the Spanner fast
// path: NewSharded opens an undisrupted generator stream once, the one it
// runs, and a second time only for a disrupted stream, which is not a
// Spanner and still needs the span scan. A wrapper that dropped Spanner
// would bring the scan back unnoticed by every result-level test.
func TestScaleSpanWithoutScan(t *testing.T) {
	storm := func(sc string) *disrupt.Spec {
		sp := ScaleSpec{Scenario: sc}
		nodes, lms, _ := sp.Dims()
		start, end, _ := sp.Span()
		d, err := disrupt.Preset("storm", nodes, lms, start, end)
		if err != nil {
			t.Fatal(err)
		}
		return &d
	}
	for _, c := range []struct {
		spec  ScaleSpec
		opens int
	}{
		{ScaleSpec{Scenario: "DART"}, 1},
		{ScaleSpec{Scenario: "DNET", Mult: 2}, 1},
		{ScaleSpec{Scenario: "DNET", Disrupt: storm("DNET")}, 2},
	} {
		open, err := c.spec.Open()
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := c.spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		wl, err := c.spec.Workload()
		if err != nil {
			t.Fatal(err)
		}
		opens := 0
		counted := func() trace.Source {
			opens++
			return open()
		}
		if _, err := sim.NewSharded(counted, NewRouter("DTN-FLOW"), wl, cfg, sim.ShardConfig{}); err != nil {
			t.Fatal(err)
		}
		if opens != c.opens {
			t.Errorf("%s ×%d (disrupted %v): NewSharded opened the stream %d times, want %d",
				c.spec.Scenario, c.spec.mult(), c.spec.Disrupt != nil, opens, c.opens)
		}
	}
}

// TestScaleSweep checks that raising the population multiplier scales
// the population and that each result carries its own labels.
func TestScaleSweep(t *testing.T) {
	mults := []int{1, 2}
	results := make([]*ScaleResult, len(mults))
	for i, mult := range mults {
		r, err := ScaleSpec{Scenario: "DNET", Mult: mult}.RunSharded("PGR", sim.ShardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	base := synth.DefaultDNET().Buses
	for i, mult := range mults {
		r := results[i]
		if r.Mult != mult || r.Nodes != base*mult {
			t.Errorf("result %d: mult=%d nodes=%d, want mult=%d nodes=%d", i, r.Mult, r.Nodes, mult, base*mult)
		}
		if r.Summary.Generated == 0 || r.Visits == 0 {
			t.Errorf("result %d: empty run %+v", i, r)
		}
	}
	if results[1].Visits <= results[0].Visits {
		t.Errorf("2× visits (%d) not above 1× (%d)", results[1].Visits, results[0].Visits)
	}
	if _, err := (ScaleSpec{Scenario: "NOPE"}).RunSharded("PGR", sim.ShardConfig{}); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestScaleConfigAnalyticWarmup checks the shared config is derived from
// the generation horizon, not a materialized span, and carries the Full
// scenario's settings: TTL, unit, node memory (Memory(2000)) and rate.
func TestScaleConfigAnalyticWarmup(t *testing.T) {
	for _, c := range []struct {
		name      string
		days      int
		ttl, unit trace.Time
		memory    int64
	}{
		{"DART", synth.DefaultDART().Days, 20 * trace.Day, 3 * trace.Day, 2000 * 1024 / 120},
		{"DNET", synth.DefaultDNET().Days, 4 * trace.Day, trace.Day / 2, 2000 * 1024 / 60},
	} {
		sp := ScaleSpec{Scenario: c.name}
		cfg, err := sp.Config()
		if err != nil {
			t.Fatal(err)
		}
		if want := trace.Time(c.days) * trace.Day / 4; cfg.Warmup != want {
			t.Errorf("%s: Warmup = %d, want %d", c.name, cfg.Warmup, want)
		}
		if cfg.TTL != c.ttl || cfg.Unit != c.unit || cfg.NodeMemory != c.memory {
			t.Errorf("%s: TTL %d, unit %d, memory %d; want the Full scenario's %d, %d, %d",
				c.name, cfg.TTL, cfg.Unit, cfg.NodeMemory, c.ttl, c.unit, c.memory)
		}
		w, err := sp.Workload()
		if err != nil {
			t.Fatal(err)
		}
		if w.Rate != 500 || w.TTL != c.ttl {
			t.Errorf("%s: workload rate %v, TTL %d; want 500, %d", c.name, w.Rate, w.TTL, c.ttl)
		}
	}
}
