package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// One run of a workload: a few set-ups alone (set-up time samples), one
// untimed warm-up pass at the workload's self-test size, then timed
// passes until the time budget is spent. The warm-up runs every code path
// of the timed passes at a fraction of their cost; its output is checked
// for errors and broken invariants only, as no fingerprint is pinned for
// that size. Every timed window is scaled to the reference core speed
// (speed.go).
// In a traced run the timed passes alternate untraced and traced, so the
// tracing overhead is the difference of two medians taken in the same
// process under the same conditions. Every pass's output is checked.

// A run makes at least setupReps set-ups alone, before the passes, and
// goes on until they have taken setupBudget, so set-up time has enough
// samples for a steady median even where one set-up takes milliseconds.
const (
	setupReps   = 6
	setupBudget = time.Second
)

// runOpts configures one run.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	pin     string // pinned fingerprint for (workload, seed); "" = none
}

// passStats is what one pass measured.
type passStats struct {
	setup, wall float64 // seconds, scaled by factor
	factor      float64 // speed factor of the pass; 1 until scaled
	peakMiB     float64
	allocMiB    float64
	allocs      float64
	layers      map[string]float64 // traced passes only
}

// outcome is a run's aggregated result.
type outcome struct {
	attempted, failed int
	failures          []string
	endToEnd          map[string]float64
	perLayer          map[string]float64
	walls, tracedW    []float64 // per-pass raw wall times, untraced and traced
	factors           []float64 // per-pass speed factors, in pass order
}

// checker compares every pass's fingerprint against the pinned one, or,
// for a seed without a pin, against the first pass that succeeded.
type checker struct {
	want              string
	attempted, failed int
	failures          []string
}

// check counts an operation whose output has no fingerprint to match.
func (c *checker) check(what string, err error) {
	c.attempted++
	if err != nil {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (c *checker) record(what, fp string, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf("%s: %v", what, err))
	case c.want == "":
		c.want = fp
	case fp != c.want:
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf("%s: fingerprint %s, want %s", what, fp, c.want))
	}
}

// guard runs fn and turns a panic into an error, so one bad pass counts
// as one failed operation instead of ending the run.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

func measure(w, warm workload, o runOpts) outcome {
	ck := &checker{want: o.pin}
	sp, err := startSampler()
	if err != nil {
		ck.check("start", err)
		return outcome{attempted: ck.attempted, failed: ck.failed, failures: ck.failures}
	}
	defer sp.end()
	var factors []float64
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupReps || spent < setupBudget; i++ {
		runtime.GC()
		t0 := time.Now()
		err := guard(func() error { _, err := w.setup(o.seed, nil); return err })
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
		if err != nil {
			ck.attempted++
			ck.failed++
			ck.failures = append(ck.failures, fmt.Sprintf("setup %d: %v", i, err))
		}
	}
	for i, f := 0, sp.factor(0); i < len(setups); i++ {
		setups[i] *= f
	}
	pass := func(name string, t *tracer) passStats {
		m := sp.mark()
		st, fp, err := onePass(w, o.seed, t)
		ck.record(name, fp, err)
		st.scale(sp.factor(m))
		factors = append(factors, st.factor)
		setups = append(setups, st.setup)
		return st
	}
	_, _, err = onePass(warm, o.seed, nil)
	ck.check("warm-up pass", err)

	// An untraced run takes at least two timed passes, so one slow pass
	// on a busy host cannot set the run's median alone.
	var plain, traced []passStats
	start := time.Now()
	for i := 0; ; i++ {
		if o.traced && i%2 == 1 {
			traced = append(traced, pass(fmt.Sprintf("traced pass %d", len(traced)+1), newTracer()))
		} else {
			plain = append(plain, pass(fmt.Sprintf("pass %d", len(plain)+1), nil))
		}
		done := len(plain) >= 2
		if o.traced {
			done = len(traced) > 0
		}
		if done && time.Since(start).Seconds() >= o.seconds {
			break
		}
	}

	wall := func(p passStats) float64 { return p.wall }
	raw := func(p passStats) float64 { return p.wall / p.factor }
	out := outcome{
		attempted: ck.attempted,
		failed:    ck.failed,
		failures:  ck.failures,
		walls:     column(plain, raw),
		tracedW:   column(traced, raw),
		factors:   factors,
		endToEnd: map[string]float64{
			"wall_s":        medianOf(plain, wall),
			"setup_s":       median(setups),
			"peak_heap_mib": medianOf(plain, func(p passStats) float64 { return p.peakMiB }),
			"alloc_mib":     medianOf(plain, func(p passStats) float64 { return p.allocMiB }),
			"allocs":        medianOf(plain, func(p passStats) float64 { return p.allocs }),
		},
	}
	if o.traced {
		out.perLayer = map[string]float64{}
		for _, d := range perLayer {
			out.perLayer[d.name] = medianOf(traced, func(p passStats) float64 { return p.layers[d.name] })
		}
		out.perLayer["bench.tracing_overhead_s"] = medianOf(traced, wall) - out.endToEnd["wall_s"]
	}
	return out
}

// onePass builds one pass's inputs (the set-up sample) and runs the
// measured work once. Garbage from earlier passes is collected before
// each phase so neither inherits the other's heap.
func onePass(w workload, seed int64, t *tracer) (passStats, string, error) {
	st := passStats{factor: 1}
	runtime.GC()
	t0 := time.Now()
	var work func() (string, error)
	err := guard(func() (err error) { work, err = w.setup(seed, t); return err })
	st.setup = time.Since(t0).Seconds()
	if err != nil {
		return st, "", fmt.Errorf("setup: %w", err)
	}

	runtime.GC()
	b0, n0 := heapAllocs()
	hw := startHeapWatch()
	t1 := time.Now()
	var fp string
	err = guard(func() (err error) { fp, err = work(); return err })
	wall := time.Since(t1)
	st.peakMiB = float64(hw.stop()) / (1 << 20)
	b1, n1 := heapAllocs()
	if t != nil {
		wall -= t.excluded
		st.layers = t.layers()
	}
	st.wall = wall.Seconds()
	st.allocMiB = float64(b1-b0) / (1 << 20)
	st.allocs = float64(n1 - n0)
	return st, fp, err
}

// scale brings the pass's times to the reference core speed.
func (p *passStats) scale(f float64) {
	p.factor = f
	p.setup *= f
	p.wall *= f
	for _, d := range perLayer {
		if _, ok := p.layers[d.name]; ok && (d.unit == "s" || d.unit == "us") {
			p.layers[d.name] *= f
		}
	}
}

// heapAllocs returns the cumulative bytes and objects allocated on the
// heap, read through runtime/metrics (no stop-the-world).
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapWatch tracks the peak live heap of the measured work: the largest
// /gc/heap/live:bytes any garbage collection during the work reported. A
// finalizer that re-arms itself samples once per GC cycle, so the watch
// never stops the world (as a runtime.ReadMemStats poller would) and
// costs nothing between collections.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

type gcSentinel struct{ w *heapWatch }

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.sample()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w: w}, func(s *gcSentinel) {
		if !s.w.stopped.Load() {
			s.w.sample()
			s.w.arm()
		}
	})
}

func (w *heapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends sampling and returns the peak.
func (w *heapWatch) stop() uint64 {
	w.stopped.Store(true)
	w.sample()
	return w.peak.Load()
}

func column(ps []passStats, f func(passStats) float64) []float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return v
}

func medianOf(ps []passStats, f func(passStats) float64) float64 {
	return median(column(ps, f))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
