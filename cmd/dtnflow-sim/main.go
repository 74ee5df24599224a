// Command dtnflow-sim runs a single trace-driven simulation of one routing
// method and prints the paper's four metrics.
//
// Usage:
//
//	dtnflow-sim -trace dart -method DTN-FLOW
//	dtnflow-sim -trace dnet -method PROPHET -rate 800 -memory 1200
//	dtnflow-sim -trace file.trace -method PER -ttl 96h
//	dtnflow-sim -trace dart -method DTN-FLOW -extensions
//	dtnflow-sim -trace dart -method DTN-FLOW -json
//	dtnflow-sim -trace dart -method DTN-FLOW -telemetry run.jsonl
//	dtnflow-sim -trace dnet -method DTN-FLOW -disrupt flash-crowd
//	dtnflow-sim -trace dart -method DTN-FLOW -disrupt spec.json
//
// -telemetry records the packet-lifecycle event stream for offline
// analysis with dtnflow-inspect (a .csv suffix selects CSV instead of
// JSONL; CSV recordings carry no meta header and cannot be replayed).
// -json replaces the human-readable report with one machine-readable
// JSON object, including the telemetry counters when recording.
// -disrupt perturbs the scenario with a named preset (outage,
// link-sever, link-degrade, churn, drift, flash-crowd, storm) or a JSON
// disruption spec file; with -telemetry, the disruption timeline lands
// in the recording's meta header so dtnflow-inspect -resilience can
// report re-convergence and degradation windows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/disrupt"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	var (
		traceArg   = flag.String("trace", "dart", "dart, dnet, campus, small, or a trace file path")
		method     = flag.String("method", "DTN-FLOW", strings.Join(experiment.MethodNames, ", "))
		rate       = flag.Float64("rate", 500, "packets per day (network-wide)")
		memoryKB   = flag.Int64("memory", 2000, "node memory in kB")
		ttl        = flag.Duration("ttl", 0, "packet TTL (0 = per-trace default)")
		seed       = flag.Int64("seed", 1, "simulation seed")
		extensions = flag.Bool("extensions", false, "enable DTN-FLOW's Section IV-E extensions")
		jsonOut    = flag.Bool("json", false, "emit the result as one machine-readable JSON object")
		disruptArg = flag.String("disrupt", "", "disruption preset (outage, link-sever, link-degrade, churn, drift, flash-crowd, storm) or a JSON spec file")
		telPath    = flag.String("telemetry", "", "record telemetry events to this file (.jsonl or .csv)")
		telCap     = flag.Int("telemetry-cap", 0, "telemetry ring capacity in events (0 = default)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
		// -trace already names the input trace here, so the execution-trace
		// flag is spelled -exectrace (dtnflow-scale uses plain -trace).
		execTrace = flag.String("exectrace", "", "write an execution trace to this file")
		blockProf = flag.String("blockprofile", "", "write a goroutine blocking profile to this file")
		mutexProf = flag.String("mutexprofile", "", "write a mutex contention profile to this file")
	)
	flag.Parse()

	if !experiment.ValidMethod(*method) {
		fmt.Fprintf(os.Stderr, "unknown method %q\n", *method)
		os.Exit(1)
	}

	tr, ttlDef, unit, err := loadTrace(*traceArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stopProf, err := prof.Config{
		CPU: *cpuProf, Mem: *memProf, Trace: *execTrace,
		Block: *blockProf, Mutex: *mutexProf,
	}.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtnflow-sim:", err)
		os.Exit(1)
	}
	defer stopProf()
	// Resolve and apply the disruption before the config: the perturbed
	// trace (outage clipping shrinks visits) is what the engine and the
	// default measurement window must see.
	var dsp *disrupt.Spec
	if *disruptArg != "" {
		sp, err := disrupt.Parse(*disruptArg, tr.NumNodes, tr.NumLandmarks, 0, tr.Duration())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-sim:", err)
			os.Exit(1)
		}
		dsp = &sp
		if tr, err = disrupt.Perturb(tr, dsp); err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-sim:", err)
			os.Exit(1)
		}
	}

	cfg := sim.DefaultConfig(tr.Duration())
	cfg.Seed = *seed
	cfg.TTL = ttlDef
	cfg.Unit = unit
	cfg.NodeMemory = *memoryKB * 1024
	if *ttl > 0 {
		cfg.TTL = trace.Time((*ttl).Seconds())
	}

	var rec *telemetry.Recorder
	if *telPath != "" {
		rec = telemetry.NewRecorder(*telCap)
		cfg.Probe = telemetry.NewProbe(rec)
	}

	var router sim.Router
	if *method == "DTN-FLOW" && *extensions {
		router = core.New(core.FullConfig())
	} else {
		router = experiment.NewRouter(*method)
	}

	w := sim.NewWorkload(*rate, cfg.PacketSize, cfg.TTL)
	dsp.Apply(&cfg, w)
	t0 := time.Now()
	res := sim.New(tr, router, w, cfg).Run()
	wall := time.Since(t0)
	s := res.Summary

	if rec != nil {
		if err := writeRecording(rec, *telPath, telemetry.Meta{
			Scenario:            *traceArg,
			Method:              s.Method,
			Seed:                *seed,
			Nodes:               tr.NumNodes,
			Landmarks:           tr.NumLandmarks,
			Unit:                cfg.Unit,
			TTL:                 cfg.TTL,
			Warmup:              cfg.Warmup,
			PacketSize:          cfg.PacketSize,
			NodeMemory:          cfg.NodeMemory,
			StationMemory:       cfg.StationMemory,
			LinkRate:            cfg.LinkRate,
			MaxContactTransfers: cfg.MaxContactTransfers,
			DisruptArg:          *disruptArg,
			Disruptions:         dsp.Events(),
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *jsonOut {
		out := jsonReport{
			Trace:      *traceArg,
			TraceInfo:  tr.Summarize().String(),
			Method:     s.Method,
			Seed:       *seed,
			Disrupt:    *disruptArg,
			Summary:    s,
			WallMillis: wall.Milliseconds(),
		}
		if rec != nil {
			c := rec.Counters()
			out.Telemetry = &c
			out.TelemetryFile = *telPath
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("trace:           %s\n", tr.Summarize())
	fmt.Printf("method:          %s\n", s.Method)
	if dsp != nil {
		fmt.Printf("disruption:      %s (%d timeline events)\n", *disruptArg, len(dsp.Events()))
	}
	fmt.Printf("generated:       %d\n", s.Generated)
	fmt.Printf("success rate:    %.3f (%d delivered)\n", s.SuccessRate, s.Delivered)
	fmt.Printf("average delay:   %s\n", metrics.FormatDuration(s.AvgDelay))
	fmt.Printf("forwarding cost: %d\n", s.Forwarding)
	fmt.Printf("total cost:      %d\n", s.TotalCost)
	if rec != nil {
		fmt.Printf("telemetry:       %d events -> %s (inspect with dtnflow-inspect -in %s)\n",
			rec.Len(), *telPath, *telPath)
	}
	fmt.Printf("wall time:       %v\n", wall.Round(time.Millisecond))
}

// jsonReport is the -json output: the run identity, the paper's summary
// metrics, and (when recording) the telemetry counter snapshot.
type jsonReport struct {
	Trace         string              `json:"trace"`
	TraceInfo     string              `json:"trace_info"`
	Method        string              `json:"method"`
	Seed          int64               `json:"seed"`
	Disrupt       string              `json:"disrupt,omitempty"`
	Summary       metrics.Summary     `json:"summary"`
	WallMillis    int64               `json:"wall_ms"`
	Telemetry     *telemetry.Counters `json:"telemetry,omitempty"`
	TelemetryFile string              `json:"telemetry_file,omitempty"`
}

// writeRecording exports the recorder to path, choosing CSV for a .csv
// suffix and JSONL otherwise.
func writeRecording(rec *telemetry.Recorder, path string, meta telemetry.Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = rec.WriteCSV(f)
	} else {
		err = rec.WriteJSONL(f, meta)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadTrace(arg string) (*trace.Trace, trace.Time, trace.Time, error) {
	switch arg {
	case "dart":
		return synth.DART(synth.DefaultDART()), 20 * trace.Day, 3 * trace.Day, nil
	case "dnet":
		return synth.DNET(synth.DefaultDNET()), 4 * trace.Day, trace.Day / 2, nil
	case "campus":
		return synth.Campus(synth.DefaultCampus()), 3 * trace.Day, 12 * trace.Hour, nil
	case "small":
		return synth.Small(synth.DefaultSmall()), 2 * trace.Day, 12 * trace.Hour, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("parsing %s: %w", arg, err)
	}
	return tr, 20 * trace.Day, 3 * trace.Day, nil
}
