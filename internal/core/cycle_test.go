package core_test

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// packetRecorder wraps the router to keep every generated packet, so a
// finished run can be compared packet by packet.
type packetRecorder struct {
	*core.Router
	pkts []*sim.Packet
}

func (r *packetRecorder) OnGenerate(ctx *sim.Context, p *sim.Packet) {
	r.pkts = append(r.pkts, p)
	r.Router.OnGenerate(ctx, p)
}

// packetEnd is a packet's final routing state.
type packetEnd struct {
	ID                 int
	NextHop            int
	ExpDelay           float64
	Delivered, Dropped bool
}

// cycleRun is everything the differential test compares between the
// fast-forwarding and the plain scheduler.
type cycleRun struct {
	Summary metrics.Summary
	Packets []packetEnd
	skips   int64
}

// diffBudget caps every contact's transfer budget in the differential
// runs. Uncapped, one long load-balanced contact replays tens of thousands
// of ping-pong transfers on the plain loop; the cap keeps the reference
// runs fast while every capped contact still leaves room for many cycles
// to skip. The uncapped behaviour is pinned by the BALANCE golden entry.
const diffBudget = 1000

func runCycle(sc *experiment.Scenario, cfg core.Config, seed int64, rate float64, skip bool) cycleRun {
	rec := &packetRecorder{Router: core.New(cfg)}
	if !skip {
		rec.ForcePlainLoop()
	}
	simCfg, w := sc.Setup(seed, rate, 0)
	simCfg.MaxContactTransfers = diffBudget
	sum := sim.New(sc.Trace, rec, w, simCfg).Run().Summary
	out := cycleRun{Summary: sum, skips: rec.CycleSkips()}
	for _, p := range rec.pkts {
		out.Packets = append(out.Packets, packetEnd{
			ID: p.ID, NextHop: p.NextHop, ExpDelay: p.ExpDelay,
			Delivered: p.Delivered(), Dropped: p.Dropped(),
		})
	}
	return out
}

// TestCycleSkipMatchesPlainLoop runs the configurations whose contacts
// ping-pong packets between station and contact node — load balancing,
// load balancing with dead-end prevention, and the HoldOnWorse ablation
// with and without load balancing — once with the scheduler's cycle
// fast-forward and once on the plain round-by-round loop, and requires
// identical summaries and per-packet final state.
// The load-balanced runs must actually fast-forward; the default
// configuration never may.
func TestCycleSkipMatchesPlainLoop(t *testing.T) {
	configs := []struct {
		name     string
		mod      func(*core.Config)
		wantSkip bool
	}{
		{"default", func(*core.Config) {}, false},
		{"balance", func(c *core.Config) { c.LoadBalance = true }, true},
		{"balance+deadend", func(c *core.Config) { c.LoadBalance, c.DeadEnd = true, true }, true},
		{"hold-off", func(c *core.Config) { c.HoldOnWorse = false }, false},
		// Without HoldOnWorse a balanced packet ping-pongs on its primary
		// link too, and the growing counters can flip the overload test
		// mid-contact: the case the fast-forward's box check guards.
		{"balance+hold-off", func(c *core.Config) { c.LoadBalance, c.HoldOnWorse = true, false }, true},
	}
	for _, tc := range configs {
		cfg := core.DefaultConfig()
		tc.mod(&cfg)
		var skips atomic.Int64
		t.Run(tc.name, func(t *testing.T) {
			for _, sc := range experiment.BothScenarios(experiment.Tiny) {
				for seed := int64(1); seed <= 3; seed++ {
					for _, rate := range []float64{100, 550} {
						t.Run(fmt.Sprintf("%s/seed%d/rate%.0f", sc.Name, seed, rate), func(t *testing.T) {
							t.Parallel()
							fast := runCycle(sc, cfg, seed, rate, true)
							plain := runCycle(sc, cfg, seed, rate, false)
							if plain.skips != 0 {
								t.Fatalf("plain loop fast-forwarded %d times", plain.skips)
							}
							if !reflect.DeepEqual(fast.Summary, plain.Summary) {
								t.Errorf("summary differs\nfast  %+v\nplain %+v", fast.Summary, plain.Summary)
							}
							if !reflect.DeepEqual(fast.Packets, plain.Packets) {
								t.Errorf("per-packet state differs")
							}
							if tc.name == "default" && fast.skips != 0 {
								t.Errorf("default configuration fast-forwarded %d times", fast.skips)
							}
							skips.Add(fast.skips)
						})
					}
				}
			}
		})
		t.Logf("%s: %d cycle skips", tc.name, skips.Load())
		if tc.wantSkip && skips.Load() == 0 {
			t.Errorf("%s: the fast-forward never fired", tc.name)
		}
	}
}

// TestBalancedRunLeavesPathsNil: only loop correction reads a packet's
// landmark path, so a load-balanced Tiny DART run without it, whose
// ping-pong contacts the fast-forward skips, must write no path at all.
// Recording paths there costs O(transfers), k×Δ entries per skip.
func TestBalancedRunLeavesPathsNil(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.LoadBalance = true
	sc := experiment.DARTScenario(experiment.Tiny)
	rec := &packetRecorder{Router: core.New(cfg)}
	simCfg, w := sc.Setup(1, 0, 0)
	sim.New(sc.Trace, rec, w, simCfg).Run()
	if rec.CycleSkips() == 0 {
		t.Fatal("the fast-forward never fired")
	}
	for _, p := range rec.pkts {
		if p.Path != nil {
			t.Fatalf("packet %d: path %v recorded with LoopFix off", p.ID, p.Path)
		}
	}
}
