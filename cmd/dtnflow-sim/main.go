// Command dtnflow-sim runs a single trace-driven simulation of one routing
// method and prints the paper's four metrics. It runs the regime the
// figures run: the trace's catalogue scenario (a trace file's from the
// name in its header) as an experiment cell, so -rate and -memory take
// the paper's labels (Fig. 11's "2000 kB" is 16 packets of buffer on
// DART), and 0 takes the trace's default.
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
// analysis with dtnflow-inspect, as JSONL headed by the run's meta.
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
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	traceArg   = flag.String("trace", "dart", "dart, dnet, campus, small, or a trace file path")
	method     = flag.String("method", "DTN-FLOW", strings.Join(experiment.MethodNames, ", "))
	rate       = flag.Float64("rate", 0, "packets per day, as the figures label it (0 = the trace's default)")
	memory     = flag.Float64("memory", 0, "node memory in the paper's kB, as the figures label it (0 = the trace's default)")
	ttl        = flag.Duration("ttl", 0, "packet TTL (0 = per-trace default)")
	seed       = flag.Int64("seed", 1, "simulation seed")
	extensions = flag.Bool("extensions", false, "enable DTN-FLOW's Section IV-E extensions")
	jsonOut    = flag.Bool("json", false, "emit the result as one machine-readable JSON object")
	disruptArg = flag.String("disrupt", "", "disruption preset (outage, link-sever, link-degrade, churn, drift, flash-crowd, storm) or a JSON spec file")
	telPath    = flag.String("telemetry", "", "record telemetry events to this JSONL file")
	telCap     = flag.Int("telemetry-cap", 0, "telemetry ring capacity in events (0 = default)")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProf    = flag.String("memprofile", "", "write an end-of-run heap profile to this file")
	// -trace already names the input trace here, so the execution-trace
	// flag is spelled -exectrace (dtnflow-scale uses plain -trace).
	execTrace = flag.String("exectrace", "", "write an execution trace to this file")
	blockProf = flag.String("blockprofile", "", "write a goroutine blocking profile to this file")
	mutexProf = flag.String("mutexprofile", "", "write a mutex contention profile to this file")
)

// load resolves the run the flags name: the trace's catalogue scenario
// and the full-scale cell the method, seed, rate and memory make on it,
// validated as every cell is.
func load() (*experiment.Scenario, experiment.Cell, error) {
	sc, err := experiment.LoadTrace(*traceArg, 0)
	if err != nil {
		return nil, experiment.Cell{}, err
	}
	c := experiment.Cell{Scenario: sc.Name, Scale: string(experiment.Full), Method: *method, Seed: *seed, Rate: *rate, Memory: *memory}
	if *method == "DTN-FLOW" && *extensions {
		flow := core.FullConfig()
		c.Flow = &flow
	}
	return sc, c, c.Validate()
}

func main() {
	flag.Parse()
	sc, c, err := load()
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
		perturbed := *sc
		if perturbed.Trace, dsp, err = disrupt.PerturbArg(sc.Trace, *disruptArg); err != nil {
			fmt.Fprintln(os.Stderr, "dtnflow-sim:", err)
			os.Exit(1)
		}
		sc = &perturbed
	}
	tr := sc.Trace

	cfg, w := c.Setup(sc)
	if *ttl > 0 {
		cfg.TTL = trace.Time((*ttl).Seconds())
		w.TTL = cfg.TTL
	}

	var rec *telemetry.Recorder
	if *telPath != "" {
		rec = telemetry.NewRecorder(*telCap)
		cfg.Probe = telemetry.NewProbe(rec)
	}

	dsp.Apply(&cfg, w)
	t0 := time.Now()
	res := sim.New(tr, c.Router(), w, cfg).Run()
	wall := time.Since(t0)
	s := res.Summary

	if rec != nil {
		meta := experiment.RunMeta(*traceArg, s.Method, tr, cfg)
		meta.DisruptArg = *disruptArg
		meta.Disruptions = dsp.Events()
		if err := writeRecording(rec, *telPath, meta); err != nil {
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
			counters := rec.Counters()
			out.Telemetry = &counters
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

// writeRecording exports the recorder to path as JSONL.
func writeRecording(rec *telemetry.Recorder, path string, meta telemetry.Meta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.WriteJSONL(f, meta)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
