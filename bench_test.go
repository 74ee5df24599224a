package dtnflow

// Benchmarks: one per paper table and figure, running the corresponding
// experiment at Tiny scale so the full suite completes in minutes while
// preserving the qualitative structure (communities, routes, warmup
// units). Regenerate the paper-scale artifacts with
//
//	go run repro/cmd/experiments -run all -out results/
//
// Success rates and delays are attached as custom benchmark metrics where
// the experiment has a single headline number.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/validate"
)

func benchOpts() experiment.Options {
	return experiment.Options{Scale: experiment.Tiny, Seeds: 1}
}

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiment.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := benchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := e.Run(opt); len(rep.Sections) == 0 {
			b.Fatalf("%s produced no sections", id)
		}
	}
}

// Trace analysis (Table I, Figs. 2-4, 6, 8).

func BenchmarkTable1Traces(b *testing.B)      { benchExperiment(b, "table1") }
func BenchmarkFig2Visiting(b *testing.B)      { benchExperiment(b, "fig2") }
func BenchmarkFig3Bandwidth(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig4BandwidthTime(b *testing.B) { benchExperiment(b, "fig4") }
func BenchmarkFig6Prediction(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig8Coverage(b *testing.B)      { benchExperiment(b, "fig8") }

// Main comparison (Figs. 11-14).

func BenchmarkFig11MemoryDART(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12MemoryDNET(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13RateDART(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14RateDNET(b *testing.B)   { benchExperiment(b, "fig14") }

// Extensions (Tables VI-IX).

func BenchmarkTable6DeadEnd(b *testing.B)     { benchExperiment(b, "table6") }
func BenchmarkTable7Loops(b *testing.B)       { benchExperiment(b, "table7") }
func BenchmarkTable8LoadBalance(b *testing.B) { benchExperiment(b, "table8") }
func BenchmarkTable9LoadBalance(b *testing.B) { benchExperiment(b, "table9") }

// Real deployment (Fig. 16, Table X).

func BenchmarkFig16Campus(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkTable10CampusTables(b *testing.B) { benchExperiment(b, "table10") }

// Ablations.

func BenchmarkAblationOrder(b *testing.B)     { benchExperiment(b, "ablation-order") }
func BenchmarkAblationPo(b *testing.B)        { benchExperiment(b, "ablation-po") }
func BenchmarkAblationDirect(b *testing.B)    { benchExperiment(b, "ablation-direct") }
func BenchmarkAblationHold(b *testing.B)      { benchExperiment(b, "ablation-hold") }
func BenchmarkAblationEWMA(b *testing.B)      { benchExperiment(b, "ablation-ewma") }
func BenchmarkAblationLandmarks(b *testing.B) { benchExperiment(b, "ablation-landmarks") }

// Micro-benchmarks of the hot building blocks.

// BenchmarkSimulateDTNFLOW measures one full Tiny-DART simulation of the
// core router, reporting the achieved success rate.
func BenchmarkSimulateDTNFLOW(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	var success float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRouter("DTN-FLOW")
		cfg, w := sc.Setup(1, 0, 0)
		res := sim.New(sc.Trace, r, w, cfg).Run()
		success = res.Summary.SuccessRate
	}
	b.ReportMetric(success, "success")
}

// BenchmarkSimulateLoadBalance measures one full Tiny-DART simulation of
// the Table VIII configuration — DTN-FLOW with load balancing — at the
// scenario's default rate, seed 1. Its contact-time scheduling is
// dominated by station/carrier ping-pong cycles, so this row tracks the
// scheduler's cycle fast-forward.
func BenchmarkSimulateLoadBalance(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	cfg := core.DefaultConfig()
	cfg.LoadBalance = true
	var success float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simCfg, w := sc.Setup(1, 0, 0)
		res := sim.New(sc.Trace, core.New(cfg), w, simCfg).Run()
		success = res.Summary.SuccessRate
	}
	b.ReportMetric(success, "success")
}

// BenchmarkSimulateTelemetryOff measures the telemetry overhead contract:
// the same Tiny-DART simulation as BenchmarkSimulateDTNFLOW with the
// probe explicitly disabled (cfg.Probe = nil, the default). Its ns/op and
// allocs/op must match BenchmarkSimulateDTNFLOW in BENCH_1.json — the
// disabled probe points are branch-only and add 0 allocs/op.
func BenchmarkSimulateTelemetryOff(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRouter("DTN-FLOW")
		cfg, w := sc.Setup(1, 0, 0)
		cfg.Probe = nil
		sim.New(sc.Trace, r, w, cfg).Run()
	}
}

// BenchmarkSimulateTracesOff pins the decision-trace overhead contract
// from the other side: after the forwarding paths gained decision hooks
// (core.emitDecision, baselines' chosen-hop traces), the probe-nil run
// must stay bit-identical in allocs/op to BENCH_8's
// BenchmarkSimulateTelemetryOff — every hook is behind Probe.Enabled()
// and the disabled path is branch-only.
func BenchmarkSimulateTracesOff(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRouter("DTN-FLOW")
		cfg, w := sc.Setup(1, 0, 0)
		cfg.Probe = nil
		sim.New(sc.Trace, r, w, cfg).Run()
	}
}

// BenchmarkSimulateTelemetryOn measures the cost of full event recording
// on the same simulation (ring preallocated once per iteration, outside
// the measured hot loop's allocations).
func BenchmarkSimulateTelemetryOn(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRouter("DTN-FLOW")
		cfg, w := sc.Setup(1, 0, 0)
		cfg.Probe = telemetry.NewProbe(telemetry.NewRecorder(0))
		sim.New(sc.Trace, r, w, cfg).Run()
	}
}

// BenchmarkSimulateCheckerOff measures the invariant checker's overhead
// contract from the disabled side: the same Tiny-DART simulation as
// BenchmarkSimulateDTNFLOW with cfg.Check explicitly nil (the default).
// Its ns/op and allocs/op must match BenchmarkSimulateDTNFLOW — every
// checker hook point is a branch on a nil comparison, adding no
// interface dispatch and 0 allocs/op when disabled.
func BenchmarkSimulateCheckerOff(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRouter("DTN-FLOW")
		cfg, w := sc.Setup(1, 0, 0)
		cfg.Check = nil
		sim.New(sc.Trace, r, w, cfg).Run()
	}
}

// BenchmarkSimulateCheckerOn measures the cost of full invariant
// checking — per-packet shadow state, per-unit buffer scans, conservation
// and table checks — on the same simulation.
func BenchmarkSimulateCheckerOn(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiment.NewRouter("DTN-FLOW")
		cfg, w := sc.Setup(1, 0, 0)
		ck := validate.NewChecker()
		cfg.Check = ck
		sim.New(sc.Trace, r, w, cfg).Run()
		if err := ck.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateBaselines measures the five baselines on Tiny-DART.
func BenchmarkSimulateBaselines(b *testing.B) {
	sc := experiment.DARTScenario(experiment.Tiny)
	for _, m := range experiment.MethodNames[1:] {
		b.Run(m, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := experiment.NewRouter(m)
				cfg, w := sc.Setup(1, 0, 0)
				sim.New(sc.Trace, r, w, cfg).Run()
			}
		})
	}
}

// benchSweep measures the warm-state forking subsystem end to end: a
// 5-seed, all-method sweep on Tiny DART at the low fig-13 packet rate,
// configured for the learning-dominated regime the subsystem targets
// (warmup = 2/3 of the trace; the paper's figures burn 1/4). Fresh and
// forked paths run the identical configuration and produce bit-identical
// points (asserted by TestSweepForkEquivalence); the benchmark pair
// isolates the wall-clock difference of re-simulating the warmup per seed
// versus forking it from one snapshot per (x, method) cell.
func benchSweep(b *testing.B, fresh bool) {
	sc := experiment.DARTScenario(experiment.Tiny)
	warmup := sc.Trace.Duration() * 2 / 3
	opt := experiment.Options{Scale: experiment.Tiny, Seeds: 5}
	// A Setup hook, even a no-op one, keeps every cell on the fresh path.
	var setup func(*sim.Engine, sim.Router)
	if fresh {
		setup = func(*sim.Engine, sim.Router) {}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiment.Sweep(experiment.MethodNames, []float64{50}, opt,
			func(m string, x float64, seed int64) experiment.Run {
				return experiment.Run{
					Scenario: sc,
					Router:   func() sim.Router { return experiment.NewRouter(m) },
					Rate:     x,
					Seed:     seed,
					Tweak:    func(cfg *sim.Config) { cfg.Warmup = warmup },
					Setup:    setup,
				}
			})
		if len(points) == 0 {
			b.Fatal("sweep produced no points")
		}
	}
}

// BenchmarkSweepFresh runs the sweep with every seed simulating its own
// warmup (a no-op Setup hook gates every cell off the fork path).
func BenchmarkSweepFresh(b *testing.B) { benchSweep(b, true) }

// BenchmarkSweepForked runs the same sweep with warm-state forking (the
// default): one warmup per (x, method) cell, five forked measured runs.
func BenchmarkSweepForked(b *testing.B) { benchSweep(b, false) }

// BenchmarkTraceGeneration measures the synthetic generators at full paper
// scale.
func BenchmarkTraceGeneration(b *testing.B) {
	b.Run("DART", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			synth.DART(synth.DefaultDART())
		}
	})
	b.Run("DNET", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			synth.DNET(synth.DefaultDNET())
		}
	})
}

// BenchmarkTransitExtraction measures transit derivation on the full DART
// trace. The trace comes from the shared scenario cache, so the benchmark
// pays no generation cost.
func BenchmarkTransitExtraction(b *testing.B) {
	tr := experiment.DARTScenario(experiment.Full).Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Transits()) == 0 {
			b.Fatal("no transits")
		}
	}
}

// BenchmarkBandwidths measures the Fig. 3 statistic on the full DART trace
// from the shared scenario cache: transit extraction, per-link counting
// and sorting.
func BenchmarkBandwidths(b *testing.B) {
	tr := experiment.DARTScenario(experiment.Full).Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(trace.Bandwidths(tr, 3*trace.Day)) == 0 {
			b.Fatal("no links")
		}
	}
}

// --- Scale tier: streaming generation into the engine -----------------

// benchScale runs one scaled DART population through the scale path
// (streaming generator feeding the engine) and reports the tier's
// headline figures — visit/event throughput and the sampled heap
// high-water mark — as custom metrics. Run them at -benchtime 1x
// (go test -run xxx -bench BenchmarkScale -benchtime 1x .): one 32× run
// is minutes of wall clock, and the figures of interest are per-run
// rates, not per-op latencies.
func benchScale(b *testing.B, mult int) {
	b.Helper()
	spec := experiment.ScaleSpec{Scenario: "DART", Mult: mult}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spec.RunSharded("DTN-FLOW", sim.ShardConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.VisitsPerSec, "visits/s")
		b.ReportMetric(res.EventsPerSec, "events/s")
		b.ReportMetric(float64(res.PeakHeap)/(1<<20), "peak-MiB")
	}
}

func BenchmarkScaleDART1x(b *testing.B)  { benchScale(b, 1) }
func BenchmarkScaleDART10x(b *testing.B) { benchScale(b, 10) }
func BenchmarkScaleDART32x(b *testing.B) { benchScale(b, 32) }

// benchOracle measures the offline oracle at population scale: one
// materialized scaled-DART trace through contact-graph build plus the
// parallel relaxed solve of the engine-identical packet schedule. Run at
// -benchtime 1x like the rest of the scale tier; the headline figures
// are the solve's packet count and the bound it produces.
func benchOracle(b *testing.B, mult int) {
	b.Helper()
	spec := experiment.ScaleSpec{Scenario: "DART", Mult: mult}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := spec.OracleScale(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sum.Packets), "packets")
		b.ReportMetric(sum.UpperBound, "upper-bound")
	}
}

func BenchmarkOracle1x(b *testing.B)  { benchOracle(b, 1) }
func BenchmarkOracle32x(b *testing.B) { benchOracle(b, 32) }

// BenchmarkScaleDART1xMaterialized is the materialized reference the scale
// tier's memory figures compare against: the same 1× population drained
// into a trace and run through sim.New, whole trace held in memory.
func BenchmarkScaleDART1xMaterialized(b *testing.B) {
	spec := experiment.ScaleSpec{Scenario: "DART", Mult: 1}
	open, err := spec.Open()
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		b.Fatal(err)
	}
	wl, err := spec.Workload()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		tr, err := trace.Materialize(open())
		if err != nil {
			b.Fatal(err)
		}
		sim.New(tr, experiment.NewRouter("DTN-FLOW"), wl, cfg).Run()
		b.ReportMetric(float64(len(tr.Visits))/time.Since(t0).Seconds(), "visits/s")
	}
}
