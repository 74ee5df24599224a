package experiment

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/disrupt"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Scale tier: populations 10–100× the paper's, streamed from the
// generators (synth.DARTSource/DNETSource) into the engine
// (sim.NewSharded) so peak memory stays bounded by one merge window of
// visits instead of the whole trace. A ScaleSpec multiplies the node
// population and its community/route structure while keeping the landmark
// count fixed — the routing tables are O(L²) per landmark, so scaling
// landmarks would change the algorithmic regime rather than the load; the
// paper's scaling question is "more devices over the same infrastructure".

// ScaleSpec describes one scaled scenario.
type ScaleSpec struct {
	// Scenario is "DART" or "DNET"; the Full-scale generator config is the
	// 1× base.
	Scenario string
	// Mult multiplies the node population (and DART communities / DNET
	// routes, the latter capped so every route keeps at least two stops);
	// landmarks are never scaled. < 1 means 1.
	Mult int
	// Rate is the network-wide packet rate per day; <= 0 means the Full
	// scenario default (500). The workload measures routing under the
	// paper's load — scale runs measure engine throughput on mobility
	// events, so the rate does not scale with Mult by default.
	Rate float64
	// Seed seeds the simulation (workload schedule); <= 0 means 1. The
	// trace seed is the generator default, as in the Full scenarios.
	Seed int64
	// Stream tunes the generation side (fill workers, merge window).
	Stream synth.StreamConfig
	// Disrupt perturbs the scenario (nil = steady state): the spec's
	// trace effects wrap the streaming source, its churn flushes enter
	// the engine config, and its flash crowds enter the workload — so a
	// stream and its materialized trace see the same disrupted world.
	Disrupt *disrupt.Spec `json:"disrupt,omitempty"`
}

func (sp ScaleSpec) mult() int {
	if sp.Mult < 1 {
		return 1
	}
	return sp.Mult
}

func (sp ScaleSpec) seed() int64 {
	if sp.Seed <= 0 {
		return 1
	}
	return sp.Seed
}

func (sp ScaleSpec) rate() float64 {
	if sp.Rate <= 0 {
		return 500
	}
	return sp.Rate
}

// scaleParams are the per-scenario experiment settings, matching the Full
// Scenario values (scenario.go) so a 1× scale run is the paper's regime.
type scaleParams struct {
	days   int
	ttl    trace.Time
	unit   trace.Time
	memDiv int64
}

func (sp ScaleSpec) params() (scaleParams, error) {
	switch sp.Scenario {
	case "DART":
		return scaleParams{days: synth.DefaultDART().Days, ttl: 20 * trace.Day, unit: 3 * trace.Day, memDiv: 120}, nil
	case "DNET":
		return scaleParams{days: synth.DefaultDNET().Days, ttl: 4 * trace.Day, unit: trace.Day / 2, memDiv: 60}, nil
	default:
		return scaleParams{}, fmt.Errorf("experiment: unknown scale scenario %q (want DART or DNET)", sp.Scenario)
	}
}

func (sp ScaleSpec) dartConfig() synth.DARTConfig {
	cfg := synth.DefaultDART()
	cfg.Nodes *= sp.mult()
	cfg.Communities *= sp.mult()
	return cfg
}

func (sp ScaleSpec) dnetConfig() synth.DNETConfig {
	cfg := synth.DefaultDNET()
	cfg.Buses *= sp.mult()
	// More buses per route is the natural scaling; the route count grows
	// only while every route can still hold at least two stops.
	r := cfg.Routes * sp.mult()
	if max := cfg.Landmarks / 2; r > max {
		r = max
	}
	if r < cfg.Routes {
		r = cfg.Routes
	}
	cfg.Routes = r
	return cfg
}

// Dims returns the scaled population without building anything.
func (sp ScaleSpec) Dims() (nodes, landmarks int, err error) {
	switch sp.Scenario {
	case "DART":
		cfg := sp.dartConfig()
		return cfg.Nodes, cfg.Landmarks, nil
	case "DNET":
		cfg := sp.dnetConfig()
		return cfg.Buses, cfg.Landmarks, nil
	default:
		_, err = sp.params()
		return 0, 0, err
	}
}

// Open returns a factory of fresh streaming sources over the scaled
// scenario — the form sim.NewSharded consumes. A disruption spec wraps
// every source, so consumers always see the perturbed stream.
func (sp ScaleSpec) Open() (func() trace.Source, error) {
	var open func() trace.Source
	switch sp.Scenario {
	case "DART":
		cfg := sp.dartConfig()
		sc := sp.Stream
		open = func() trace.Source { return synth.DARTSource(cfg, sc) }
	case "DNET":
		cfg := sp.dnetConfig()
		sc := sp.Stream
		open = func() trace.Source { return synth.DNETSource(cfg, sc) }
	default:
		_, err := sp.params()
		return nil, err
	}
	return disrupt.Wrap(open, sp.Disrupt), nil
}

// Span returns the scenario's generation horizon [0, days × Day) — the
// window disruption presets are placed in.
func (sp ScaleSpec) Span() (start, end trace.Time, err error) {
	p, err := sp.params()
	if err != nil {
		return 0, 0, err
	}
	return 0, trace.Time(p.days) * trace.Day, nil
}

// Config returns the simulator configuration of the spec. The warmup
// boundary is analytic — a quarter of the generation horizon (days × Day)
// — rather than a quarter of the materialized span, so the streaming path
// needs no extra scan and a run over the materialized stream measures the
// same window.
func (sp ScaleSpec) Config() (sim.Config, error) {
	p, err := sp.params()
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(trace.Time(p.days) * trace.Day)
	cfg.Seed = sp.seed()
	cfg.TTL = p.ttl
	cfg.Unit = p.unit
	cfg.NodeMemory = 2000 * 1024 / p.memDiv // the Full scenarios' Memory(2000)
	if cfg.NodeMemory < 1024 {
		cfg.NodeMemory = 1024
	}
	sp.Disrupt.Apply(&cfg, nil)
	return cfg, nil
}

// Workload returns the scaled scenario's workload, including any flash
// crowds from the disruption spec.
func (sp ScaleSpec) Workload() (*sim.Workload, error) {
	p, err := sp.params()
	if err != nil {
		return nil, err
	}
	w := sim.NewWorkload(sp.rate(), 1024, p.ttl)
	sp.Disrupt.Apply(nil, w)
	return w, nil
}

// ScaleResult is one scale run's outcome: the routing summary plus the
// engine-throughput and memory figures the scale tier exists to measure.
type ScaleResult struct {
	Scenario     string          `json:"scenario"`
	Mult         int             `json:"mult"`
	Method       string          `json:"method"`
	Nodes        int             `json:"nodes"`
	Landmarks    int             `json:"landmarks"`
	Visits       int             `json:"visits"`
	Events       int             `json:"events"` // applied simulation events
	WallSec      float64         `json:"wall_sec"`
	VisitsPerSec float64         `json:"visits_per_sec"`
	EventsPerSec float64         `json:"events_per_sec"`
	PeakHeap     uint64          `json:"peak_heap_bytes"`
	Summary      metrics.Summary `json:"summary"`
}

// heapWatermark samples the live heap on a background ticker and tracks
// the high-water mark. It reads runtime/metrics'
// /memory/classes/heap/objects:bytes — HeapAlloc's equivalent — which,
// unlike runtime.ReadMemStats, does not stop the world. The 20 Hz
// resolution is coarse, but ample for runs of seconds to minutes.
type heapWatermark struct {
	stop   chan struct{}
	done   chan struct{}
	sample []rtmetrics.Sample
	peak   uint64
}

func startHeapWatermark() *heapWatermark {
	w := &heapWatermark{
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		sample: []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	runtime.GC() // drop the previous run's garbage from the baseline
	w.read()
	go func() {
		defer close(w.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				w.read()
				return
			case <-t.C:
				w.read()
			}
		}
	}()
	return w
}

func (w *heapWatermark) read() {
	rtmetrics.Read(w.sample)
	if v := w.sample[0].Value.Uint64(); v > w.peak {
		w.peak = v
	}
}

// halt stops the sampler and returns the observed peak.
func (w *heapWatermark) halt() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// RunSharded executes the spec on the scale path: the streaming source
// feeding the engine epoch by epoch.
func (sp ScaleSpec) RunSharded(method string, sh sim.ShardConfig) (*ScaleResult, error) {
	open, err := sp.Open()
	if err != nil {
		return nil, err
	}
	cfg, err := sp.Config()
	if err != nil {
		return nil, err
	}
	wl, err := sp.Workload()
	if err != nil {
		return nil, err
	}
	nodes, lms, _ := sp.Dims()

	wm := startHeapWatermark()
	t0 := time.Now()
	s, err := sim.NewSharded(open, NewRouter(method), wl, cfg, sh)
	if err != nil {
		wm.halt()
		return nil, err
	}
	res := s.Run()
	wall := time.Since(t0)
	peak := wm.halt()
	st := s.Stats()
	r := &ScaleResult{
		Scenario:  sp.Scenario,
		Mult:      sp.mult(),
		Method:    method,
		Nodes:     nodes,
		Landmarks: lms,
		Visits:    st.Visits,
		Events:    st.Events,
		WallSec:   wall.Seconds(),
		PeakHeap:  peak,
		Summary:   res.Summary,
	}
	if s := wall.Seconds(); s > 0 {
		r.VisitsPerSec = float64(r.Visits) / s
		r.EventsPerSec = float64(r.Events) / s
	}
	return r, nil
}
