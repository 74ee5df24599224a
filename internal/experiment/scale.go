package experiment

import (
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
	// scenario default. The workload measures routing under the
	// paper's load — scale runs measure engine throughput on mobility
	// events, so the rate does not scale with Mult by default.
	Rate float64
	// Seed seeds the simulation (workload schedule); <= 0 means 1. The
	// trace seed is the generator default, as in the Full scenarios.
	Seed int64
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
	r, err := sp.resolve()
	return r.nodes, r.landmarks, err
}

// Open returns a factory of fresh streaming sources over the scaled
// scenario — the form sim.NewSharded consumes. A disruption spec wraps
// every source, so consumers always see the perturbed stream.
func (sp ScaleSpec) Open() (func() trace.Source, error) {
	r, err := sp.resolve()
	if err != nil {
		return nil, err
	}
	return disrupt.Wrap(r.open, sp.Disrupt), nil
}

// Span returns the scenario's generation horizon [0, days × Day) — the
// window disruption presets are placed in.
func (sp ScaleSpec) Span() (start, end trace.Time, err error) {
	r, err := sp.resolve()
	return 0, trace.Time(r.days) * trace.Day, err
}

// Config returns the simulator configuration of the spec: the Full
// scenario's settings over the generation horizon. The warmup boundary is
// analytic — a quarter of days × Day — rather than a quarter of the
// materialized span, so the streaming path needs no extra scan and a run
// over the materialized stream measures the same window.
func (sp ScaleSpec) Config() (sim.Config, error) {
	r, err := sp.resolve()
	if err != nil {
		return sim.Config{}, err
	}
	cfg, _ := r.base.setup(trace.Time(r.days)*trace.Day, sp.seed(), sp.Rate, 0)
	sp.Disrupt.Apply(&cfg, nil)
	return cfg, nil
}

// Workload returns the scaled scenario's workload at the spec's rate
// (<= 0 means the Full scenario default), including any flash crowds
// from the disruption spec.
func (sp ScaleSpec) Workload() (*sim.Workload, error) {
	r, err := sp.resolve()
	if err != nil {
		return nil, err
	}
	_, w := r.base.setup(0, sp.seed(), sp.Rate, 0)
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
