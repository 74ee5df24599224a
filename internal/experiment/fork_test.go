package experiment

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// warmSnapshot runs the scenario's warmup once for the given method and
// returns the end-of-warmup snapshot plus the workload to fork with.
func warmSnapshot(t *testing.T, sc *Scenario, method string) (*sim.Snapshot, *sim.Workload) {
	t.Helper()
	cfg, w := sc.Setup(1, 0, 0)
	eng := sim.New(sc.Trace, NewRouter(method), nil, cfg)
	eng.RunWarmup()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("%s/%s: snapshot: %v", sc.Name, method, err)
	}
	return snap, w
}

// TestForkEquivalence checks the bit-identical contract of warm-state
// forking: for every method on the tiny DART and DNET scenarios, a run
// forked from a shared end-of-warmup snapshot must produce exactly the
// summary of a fresh engine simulating warmup and measurement end to end
// with the same seed.
func TestForkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	for _, sc := range BothScenarios(Tiny) {
		for _, m := range MethodNames {
			snap, wl := warmSnapshot(t, sc, m)
			for seed := int64(1); seed <= 2; seed++ {
				fresh := Run{Scenario: sc, Router: routerFactory(m), Seed: seed}.Execute()
				forked := sim.Fork(snap, wl, seed).Run().Summary
				if !reflect.DeepEqual(fresh, forked) {
					t.Errorf("%s/%s seed %d: fork diverged from fresh run:\nfresh:  %+v\nforked: %+v",
						sc.Name, m, seed, fresh, forked)
				}
			}
		}
	}
}

// TestForkProbeIsolation checks that forks of a probed snapshot record
// apart: two forks run concurrently must each end with the counters and
// events of a fresh probed run of their seed, for every method on both
// Tiny scenarios. Under -race, forks sharing one recorder would also race.
func TestForkProbeIsolation(t *testing.T) {
	const capacity = 1 << 16
	for _, sc := range BothScenarios(Tiny) {
		for _, m := range MethodNames {
			cfg, wl := sc.Setup(1, 0, 0)
			cfg.Probe = telemetry.NewProbe(telemetry.NewRecorder(capacity))
			eng := sim.New(sc.Trace, NewRouter(m), nil, cfg)
			eng.RunWarmup()
			snap, err := eng.Snapshot()
			if err != nil {
				t.Fatalf("%s/%s: snapshot: %v", sc.Name, m, err)
			}
			forks := make([]*telemetry.Recorder, 2)
			var wg sync.WaitGroup
			for k := range forks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e := sim.Fork(snap, wl, int64(k+1))
					e.Run()
					forks[k] = e.Context().Probe.Recorder()
				}()
			}
			wg.Wait()
			for k, got := range forks {
				want := telemetry.NewRecorder(capacity)
				Run{Scenario: sc, Router: routerFactory(m), Seed: int64(k + 1), Probe: telemetry.NewProbe(want)}.Execute()
				if err := sameRecording(got, want); err != "" {
					t.Errorf("%s/%s seed %d: fork %s", sc.Name, m, k+1, err)
				}
			}
		}
	}
}

// sameRecording describes how got differs from the fresh run's recorder
// want, or returns "" when their counters and held events are equal.
func sameRecording(got, want *telemetry.Recorder) string {
	if gc, wc := got.Counters(), want.Counters(); !reflect.DeepEqual(gc, wc) {
		return fmt.Sprintf("counters diverged from the fresh run:\nfork:  %+v\nfresh: %+v", gc, wc)
	}
	if !slices.Equal(got.Events(nil), want.Events(nil)) {
		return "events diverged from the fresh run"
	}
	return ""
}

// freshSweep is the reference for Sweep: every run of methods × xs ×
// seeds executed fresh (Run.Execute, no warm-state forking) and folded
// into points exactly as Sweep folds them.
func freshSweep(methods []string, xs []float64, seeds int, build func(string, float64, int64) Run) []SweepPoint {
	var runs []Run
	for _, x := range xs {
		for _, m := range methods {
			for s := 0; s < seeds; s++ {
				runs = append(runs, build(m, x, int64(s+1)))
			}
		}
	}
	sums := Parallel(runs, 0)
	points := make([]SweepPoint, len(xs))
	for xi, x := range xs {
		points[xi].X = x
		for mi := range methods {
			i := (xi*len(methods) + mi) * seeds
			points[xi].Results = append(points[xi].Results, Average(sums[i:i+seeds]))
		}
	}
	return points
}

// TestSweepForkEquivalence checks the same contract one layer up: a Sweep
// with forking enabled must return exactly the points of fresh per-seed
// runs.
func TestSweepForkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	sc := DARTScenario(Tiny)
	build := func(m string, x float64, seed int64) Run {
		return Run{Scenario: sc, Router: routerFactory(m), Rate: x, Seed: seed}
	}
	methods := []string{"DTN-FLOW", "PROPHET"}
	xs := []float64{100, 200}
	forked := Sweep(methods, xs, Options{Scale: Tiny, Seeds: 3}, build)
	fresh := freshSweep(methods, xs, 3, build)
	if !reflect.DeepEqual(forked, fresh) {
		t.Errorf("sweep diverged:\nforked: %+v\nfresh:  %+v", forked, fresh)
	}
}

// TestForkIsolation checks that forks share nothing mutable: running one
// fork to completion must not change what a later fork of the same
// snapshot computes, for equal or different seeds.
func TestForkIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	sc := DNETScenario(Tiny)
	snap, wl := warmSnapshot(t, sc, "DTN-FLOW")
	first := sim.Fork(snap, wl, 1).Run().Summary
	other := sim.Fork(snap, wl, 2).Run().Summary
	again := sim.Fork(snap, wl, 1).Run().Summary
	if !reflect.DeepEqual(first, again) {
		t.Errorf("seed-1 fork changed after sibling forks ran:\nfirst: %+v\nagain: %+v", first, again)
	}
	if reflect.DeepEqual(first, other) {
		t.Errorf("seed-1 and seed-2 forks produced identical summaries %+v; seeds not applied", first)
	}
}

// countingChecker is a minimal sim.Checker that only counts Generated
// calls. If a Sweep wrongly forks a checked cell, the fork discards the
// per-run checker and the counter stays at zero — making the fallback
// observable from outside.
type countingChecker struct{ generated *atomic.Int64 }

func (c countingChecker) Generated(trace.Time, *sim.Packet) { c.generated.Add(1) }
func (c countingChecker) Transferred(trace.Time, telemetry.HopKind, *sim.Packet, int, int) {
}
func (c countingChecker) Delivered(trace.Time, *sim.Packet, int)              {}
func (c countingChecker) Dropped(trace.Time, *sim.Packet, metrics.DropReason) {}
func (c countingChecker) Score(trace.Time, string, int, int, float64)         {}
func (c countingChecker) Table(trace.Time, int, *routing.Table)               {}
func (c countingChecker) Scan(trace.Time, *sim.Context)                       {}
func (c countingChecker) Finish(*sim.Context)                                 {}

// TestSweepFallbackGates exercises every condition that must force a
// Sweep group off the warm-fork fast path and onto fresh per-seed runs: a
// per-run checker, a Setup hook, a Tweak that attaches a checker at
// config level, and a router whose warm state Snapshot refuses to clone.
// For each gate the sweep must (a) produce exactly the fresh-run results
// and (b) demonstrably run the fresh path — the attached observer sees
// every run, which a silently-forked group would skip. A per-run probe is
// no gate: its group forks, and every run's recorder must still end as
// its fresh run's.
func TestSweepFallbackGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	sc := DARTScenario(Tiny)
	methods := []string{"DTN-FLOW"}
	xs := []float64{150}
	const seeds = 2

	cases := []struct {
		name     string
		build    func(counter *atomic.Int64) func(m string, x float64, seed int64) Run
		wantRuns bool // counter must equal the number of measured runs
	}{
		{
			name: "per-run-checker",
			build: func(counter *atomic.Int64) func(string, float64, int64) Run {
				return func(m string, x float64, seed int64) Run {
					return Run{Scenario: sc, Router: routerFactory(m), Rate: x, Seed: seed,
						Check: countingChecker{generated: counter}}
				}
			},
		},
		{
			name: "setup-hook",
			build: func(counter *atomic.Int64) func(string, float64, int64) Run {
				return func(m string, x float64, seed int64) Run {
					return Run{Scenario: sc, Router: routerFactory(m), Rate: x, Seed: seed,
						Setup: func(*sim.Engine, sim.Router) { counter.Add(1) }}
				}
			},
			wantRuns: true,
		},
		{
			name: "tweak-attaches-checker",
			build: func(counter *atomic.Int64) func(string, float64, int64) Run {
				return func(m string, x float64, seed int64) Run {
					return Run{Scenario: sc, Router: routerFactory(m), Rate: x, Seed: seed,
						Tweak: func(cfg *sim.Config) { cfg.Check = countingChecker{generated: counter} }}
				}
			},
		},
		{
			name: "snapshot-rejects-router",
			build: func(counter *atomic.Int64) func(string, float64, int64) Run {
				return func(m string, x float64, seed int64) Run {
					return Run{Scenario: sc, Rate: x, Seed: seed,
						// The opaque wrapper hides the Cloner implementation,
						// so warm() fails at Snapshot and leaves snap nil.
						Router: func() sim.Router { return struct{ sim.Router }{NewRouter(m)} },
						Setup:  nil}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var gated, fresh atomic.Int64
			forkedPoints := Sweep(methods, xs, Options{Scale: Tiny, Seeds: seeds}, tc.build(&gated))
			freshPoints := freshSweep(methods, xs, seeds, tc.build(&fresh))
			if !reflect.DeepEqual(forkedPoints, freshPoints) {
				t.Errorf("gated sweep diverged from fresh runs:\ngated: %+v\nfresh: %+v",
					forkedPoints, freshPoints)
			}
			runs := int64(len(methods) * len(xs) * seeds)
			if tc.wantRuns {
				if gated.Load() != runs {
					t.Errorf("fresh path ran %d of %d measured runs; cell was forked despite the gate",
						gated.Load(), runs)
				}
			} else if gated.Load() != fresh.Load() {
				t.Errorf("gated sweep observed %d events, fresh runs observed %d; cell was forked despite the gate",
					gated.Load(), fresh.Load())
			}
		})
	}
	t.Run("per-run-probe", func(t *testing.T) {
		// Builds run serially, so each sweep's recorders land in seed order.
		build := func(factoryCalls *atomic.Int64, recs *[]*telemetry.Recorder) func(string, float64, int64) Run {
			return func(m string, x float64, seed int64) Run {
				rec := telemetry.NewRecorder(1 << 10)
				*recs = append(*recs, rec)
				return Run{Scenario: sc, Rate: x, Seed: seed, Probe: telemetry.NewProbe(rec),
					Router: func() sim.Router { factoryCalls.Add(1); return NewRouter(m) }}
			}
		}
		var forkCalls, freshCalls atomic.Int64
		var forkRecs, freshRecs []*telemetry.Recorder
		forkedPoints := Sweep(methods, xs, Options{Scale: Tiny, Seeds: seeds}, build(&forkCalls, &forkRecs))
		freshPoints := freshSweep(methods, xs, seeds, build(&freshCalls, &freshRecs))
		if !reflect.DeepEqual(forkedPoints, freshPoints) {
			t.Errorf("probed sweep diverged from fresh runs:\nforked: %+v\nfresh:  %+v", forkedPoints, freshPoints)
		}
		if groups := int64(len(methods) * len(xs)); forkCalls.Load() != groups {
			t.Errorf("router factory called %d times for %d groups of %d seeds; the probed group did not fork",
				forkCalls.Load(), groups, seeds)
		}
		for i := range forkRecs {
			if err := sameRecording(forkRecs[i], freshRecs[i]); err != "" {
				t.Errorf("run %d: %s", i, err)
			}
		}
	})
}

// TestSnapshotGates checks that Snapshot refuses engines it cannot fork
// safely: pending protocol timers (closures over the original engine) and
// routers without Cloner support.
func TestSnapshotGates(t *testing.T) {
	sc := DNETScenario(Tiny)

	eng := sim.New(sc.Trace, NewRouter("DTN-FLOW"), nil, sc.Config(1))
	if _, err := eng.Snapshot(); err == nil {
		t.Error("Snapshot before RunWarmup succeeded; want error")
	}
	eng.RunWarmup()
	eng.Context().Schedule(sc.Trace.Duration(), func() {})
	if _, err := eng.Snapshot(); err == nil {
		t.Error("Snapshot with a pending timer succeeded; want error")
	}

	// An opaque wrapper hides the Cloner implementation.
	plain := sim.New(sc.Trace, struct{ sim.Router }{NewRouter("DTN-FLOW")}, nil, sc.Config(1))
	plain.RunWarmup()
	if _, err := plain.Snapshot(); err == nil {
		t.Error("Snapshot of a non-Cloner router succeeded; want error")
	}
}
