package main

import (
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Layer tracing for the traced run. Every span is recorded from the
// benchmark's side of a layer boundary: a trace.Source wrapper times the
// streaming generator's Next, a sim.Router wrapper times each router
// callback, and the workloads time their direct calls into sim, trace,
// oracle and experiment. The wrappers forward the optional interfaces the
// engine probes for (trace.Spanner, sim.Cloner), so a traced pass takes
// the same engine path as an untraced one and must reproduce its
// fingerprint.
//
// A nil *tracer is the untraced state: every method is a no-op and the
// factories hand back the unwrapped objects.

type tracer struct {
	mu      sync.Mutex
	vals    map[string]float64
	routers []*routerWrap
	sources []*sourceWrap
	recs    []*telemetry.Recorder
	// excluded is measuring work done inside a traced pass that the
	// untraced pass does not do; it is subtracted from the traced wall.
	excluded time.Duration
}

func newTracer() *tracer { return &tracer{vals: map[string]float64{}} }

// add accumulates v into the named layer value.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vals[name] += v
	t.mu.Unlock()
}

// since adds the seconds elapsed from t0 to the named layer value.
func (t *tracer) since(name string, t0 time.Time) {
	if t == nil {
		return
	}
	t.add(name, time.Since(t0).Seconds())
}

// exclude removes d from the traced pass's wall time.
func (t *tracer) exclude(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.excluded += d
	t.mu.Unlock()
}

// probe returns a fresh telemetry probe whose counters feed the
// routing and predict metrics (nil when untraced). The ring is small on
// purpose: only the exact counters are read, never the event ring.
func (t *tracer) probe() *telemetry.Probe {
	if t == nil {
		return nil
	}
	rec := telemetry.NewRecorder(1024)
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
	return telemetry.NewProbe(rec)
}

// source wraps a source factory so every opened source is timed.
func (t *tracer) source(open func() trace.Source) func() trace.Source {
	if t == nil {
		return open
	}
	return func() trace.Source {
		w := &sourceWrap{inner: open()}
		t.mu.Lock()
		t.sources = append(t.sources, w)
		t.mu.Unlock()
		if _, ok := w.inner.(trace.Spanner); ok {
			return spanSourceWrap{w}
		}
		return w
	}
}

// synthTotals sums the Next time, calls and visits of every source
// opened so far.
func (t *tracer) synthTotals() (d time.Duration, calls, visits int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.sources {
		d += s.d
		calls += s.calls
		visits += s.visits
	}
	return d, calls, visits
}

// sourceWrap times Next on a streaming source. A source is drained by
// one goroutine (the sharded engine's prefetch stage), and its totals
// are read only after that goroutine has finished.
type sourceWrap struct {
	inner         trace.Source
	d             time.Duration
	calls, visits int64
}

func (s *sourceWrap) Info() trace.SourceInfo { return s.inner.Info() }

func (s *sourceWrap) Next() ([]trace.Visit, bool) {
	t0 := time.Now()
	v, ok := s.inner.Next()
	s.d += time.Since(t0)
	s.calls++
	s.visits += int64(len(v))
	return v, ok
}

// spanSourceWrap forwards trace.Spanner. Without it sim.NewSharded would
// drain a second stream with trace.ScanSpan to learn the span.
type spanSourceWrap struct{ *sourceWrap }

func (s spanSourceWrap) Span() (start, end trace.Time) {
	return s.inner.(trace.Spanner).Span()
}

// router returns a router factory for method; when traced, every router
// it builds is wrapped and registered.
func (t *tracer) router(method string, build func() sim.Router) func() sim.Router {
	if t == nil {
		return build
	}
	return func() sim.Router {
		created := time.Now()
		_, r := t.wrap(method, build(), created)
		return r
	}
}

// wrap registers a wrapper around inner and returns it both as its
// concrete type and as the router to hand the engine.
func (t *tracer) wrap(method string, inner sim.Router, created time.Time) (*routerWrap, sim.Router) {
	w := &routerWrap{inner: inner, method: method, created: created}
	t.mu.Lock()
	t.routers = append(t.routers, w)
	t.mu.Unlock()
	if _, ok := inner.(sim.Cloner); ok {
		return w, &clonerWrap{routerWrap: w, t: t}
	}
	return w, w
}

// routerWrap times every callback of one router. A router serves one
// engine on one goroutine, so its counters need no lock; they are read
// after the engine has finished.
type routerWrap struct {
	inner   sim.Router
	method  string
	created time.Time // factory call (zero for clones)
	start   time.Time // Init call (the start of Run) or CloneRouter call
	last    time.Time // end of the latest callback
	ctx     *sim.Context

	initD, contactD, departD, unitD, generateD, cloneD time.Duration
	contactN, departN, unitN, generateN                int64
	backlog, transfers                                 int64
	recomputes, rowsChanged                            int64
}

func (w *routerWrap) Name() string { return w.inner.Name() }

func (w *routerWrap) Init(ctx *sim.Context) {
	w.start = time.Now()
	w.ctx = ctx
	w.inner.Init(ctx)
	w.initD += w.stamp(w.start)
}

// stamp records the end of a callback that began at t0 and returns its
// duration.
func (w *routerWrap) stamp(t0 time.Time) time.Duration {
	w.last = time.Now()
	return w.last.Sub(t0)
}

func (w *routerWrap) OnContact(ctx *sim.Context, c *sim.Contact) {
	w.backlog += int64(ctx.Stations[c.Landmark].Buffer.Len())
	moved := ctx.Metrics.ForwardingOps
	t0 := time.Now()
	w.inner.OnContact(ctx, c)
	w.contactD += w.stamp(t0)
	w.transfers += ctx.Metrics.ForwardingOps - moved
	w.contactN++
}

func (w *routerWrap) OnDepart(ctx *sim.Context, n *sim.Node, landmark int) {
	t0 := time.Now()
	w.inner.OnDepart(ctx, n, landmark)
	w.departD += w.stamp(t0)
	w.departN++
}

func (w *routerWrap) OnGenerate(ctx *sim.Context, p *sim.Packet) {
	t0 := time.Now()
	w.inner.OnGenerate(ctx, p)
	w.generateD += w.stamp(t0)
	w.generateN++
}

// OnTimeUnit counts routing-table recomputes. Routers report them to the
// telemetry probe only from OnTimeUnit, so when a probe is attached the
// call runs against a private recorder whose recompute events are summed
// here; the run's own recorder keeps every other counter. Both probes are
// enabled, so the router takes the same branches either way.
func (w *routerWrap) OnTimeUnit(ctx *sim.Context, seq int) {
	t0 := time.Now()
	if run := ctx.Probe; run != nil {
		rec := telemetry.NewRecorder(ctx.NumLandmarks() + 1)
		ctx.Probe = telemetry.NewProbe(rec)
		w.inner.OnTimeUnit(ctx, seq)
		ctx.Probe = run
		for _, ev := range rec.Events(nil) {
			if ev.Kind == telemetry.EvRecompute {
				w.recomputes++
				w.rowsChanged += int64(ev.Aux)
			}
		}
	} else {
		w.inner.OnTimeUnit(ctx, seq)
	}
	w.unitD += w.stamp(t0)
	w.unitN++
}

// busy is the router's total callback time.
func (w *routerWrap) busy() time.Duration {
	return w.initD + w.contactD + w.departD + w.unitD + w.generateD + w.cloneD
}

// clonerWrap forwards sim.Cloner: it clones the inner router and wraps
// the clone, so sweep cells keep forking from their warm snapshots.
// CloneRouter reads the receiver only (forks of one snapshot clone it
// concurrently); the clone's own wrapper carries the clone time.
type clonerWrap struct {
	*routerWrap
	t *tracer
}

func (w *clonerWrap) CloneRouter(ctx *sim.Context) sim.Router {
	t0 := time.Now()
	inner := w.inner.(sim.Cloner).CloneRouter(ctx)
	cw, c := w.t.wrap(w.method, inner, time.Time{})
	cw.start, cw.ctx = t0, ctx
	cw.cloneD = cw.stamp(t0)
	return c
}

// layers folds the pass's spans and counters into the per-layer metrics.
// Names no workload layer reported stay 0: that layer is not on the
// workload's path.
func (t *tracer) layers() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range t.vals {
		m[k] = v
	}
	var busy, built, spans time.Duration
	var events, generated, delivered, dropped int64
	for _, w := range t.routers {
		busy += w.busy()
		if !w.start.IsZero() {
			spans += w.last.Sub(w.start)
			if !w.created.IsZero() {
				built += w.start.Sub(w.created)
			}
		}
		m["router.init_s"] += w.initD.Seconds()
		m["router.contact_s"] += w.contactD.Seconds()
		m["router.contact_calls"] += float64(w.contactN)
		m["router.backlog_scanned"] += float64(w.backlog)
		m["router.transfers"] += float64(w.transfers)
		m["router.depart_s"] += w.departD.Seconds()
		m["router.depart_calls"] += float64(w.departN)
		m["router.unit_s"] += w.unitD.Seconds()
		m["router.unit_calls"] += float64(w.unitN)
		m["router.generate_s"] += w.generateD.Seconds()
		m["router.generate_calls"] += float64(w.generateN)
		m["routing.recomputes"] += float64(w.recomputes)
		m["routing.rows_changed"] += float64(w.rowsChanged)
		m["method."+w.method+".run_s"] += w.busy().Seconds()
		events += w.contactN + w.departN + w.unitN + w.generateN
		if w.ctx != nil {
			c := w.ctx.Metrics
			generated += int64(c.Generated)
			delivered += int64(c.Delivered)
			for _, n := range c.Dropped {
				dropped += int64(n)
			}
		}
	}
	if b := m["router.backlog_scanned"]; b > 0 {
		m["router.moved_per_scanned"] = m["router.transfers"] / b
	}
	if _, ok := t.vals["sim.events"]; !ok {
		// The classic engine keeps no event count; every event it applies
		// reaches the router, so the callbacks count them.
		m["sim.events"] = float64(events)
	}
	// Where the workload could not time engine construction and runs
	// directly (engines inside experiment's worker pools, forked runs),
	// they come from the routers: construction from the factory call to
	// Init, a run from Init (or CloneRouter) to the end of its last
	// callback, which leaves out only the engine's end-of-run tally.
	if _, ok := t.vals["sim.new_s"]; !ok {
		m["sim.new_s"] = built.Seconds()
	}
	run, ok := t.vals["sim.run_s"]
	if !ok {
		run = spans.Seconds()
	}
	delete(m, "sim.run_s")
	if len(t.routers) > 0 {
		m["sim.apply_self_s"] = run - busy.Seconds()
	}
	m["packets.generated"] = float64(generated)
	m["packets.delivered"] = float64(delivered)
	m["packets.dropped"] = float64(dropped)
	for _, rec := range t.recs {
		c := rec.Counters()
		m["predict.hits"] += float64(c.PredictHits)
		m["predict.misses"] += float64(c.PredictMiss)
	}
	if n := m["predict.hits"] + m["predict.misses"]; n > 0 {
		m["predict.hit_ratio"] = m["predict.hits"] / n
	}
	return m
}

// clones counts the routers made by CloneRouter, i.e. the forked runs.
func (t *tracer) clones() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, w := range t.routers {
		if w.created.IsZero() {
			n++
		}
	}
	return n
}
