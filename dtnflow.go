// Package dtnflow is the public facade of the DTN-FLOW reproduction: a
// trace-driven delay-tolerant-network simulator, the DTN-FLOW
// inter-landmark routing algorithm of Chen and Shen (IPDPS 2013 / IEEE/ACM
// ToN) with all of its Section IV-E extensions, five baseline DTN routers,
// synthetic stand-ins for the paper's DART / DNET / campus traces, and an
// experiment harness that regenerates every table and figure of the
// paper's evaluation.
//
// Quick start:
//
//	tr := dtnflow.DARTTrace()
//	res := dtnflow.Simulate(tr, dtnflow.NewDTNFLOW(), dtnflow.SimOptions{
//		RatePerDay: 500,
//	})
//	fmt.Printf("success %.2f, delay %s\n",
//		res.SuccessRate, time.Duration(res.AvgDelay)*time.Second)
//
// Reproducing a paper artifact:
//
//	report, _ := dtnflow.RunExperiment("fig11", dtnflow.ExperimentOptions{})
//	fmt.Println(report)
//
// The building blocks live in the internal packages (core, baselines, sim,
// synth, trace, routing, predict, landmark, metrics, experiment); this
// package re-exports the surface a downstream user needs.
package dtnflow

import (
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/landmark"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Re-exported core types.
type (
	// Trace is a preprocessed mobility trace (visit records).
	Trace = trace.Trace
	// Visit is one node-landmark association interval.
	Visit = trace.Visit
	// Time is a simulation timestamp in seconds.
	Time = trace.Time
	// Router is a routing algorithm runnable on the simulator.
	Router = sim.Router
	// Summary holds the paper's four evaluation metrics for one run.
	Summary = metrics.Summary
	// FlowConfig configures the DTN-FLOW router.
	FlowConfig = core.Config
)

// Time units re-exported for convenience.
const (
	Second = trace.Second
	Minute = trace.Minute
	Hour   = trace.Hour
	Day    = trace.Day
)

// DARTTrace generates the DART-like campus trace (320 nodes, 159
// landmarks, ~17 weeks) standing in for the Dartmouth WLAN dataset.
func DARTTrace() *Trace { return synth.DART(synth.DefaultDART()) }

// DNETTrace generates the DNET-like bus trace (34 buses, 18 landmarks,
// ~25 days) standing in for the UMass DieselNet dataset.
func DNETTrace() *Trace { return synth.DNET(synth.DefaultDNET()) }

// CampusTrace generates the nine-phone campus-deployment trace of the
// paper's Section V-C.
func CampusTrace() *Trace { return synth.Campus(synth.DefaultCampus()) }

// SmallTrace generates a compact trace that simulates in milliseconds.
func SmallTrace() *Trace { return synth.Small(synth.DefaultSmall()) }

// NewDTNFLOW returns the DTN-FLOW router in its headline configuration
// (Section V-A: extensions off).
func NewDTNFLOW() Router { return core.New(core.DefaultConfig()) }

// NewDTNFLOWFull returns DTN-FLOW with dead-end prevention, loop
// detection/correction and load balancing enabled (Section IV-E).
func NewDTNFLOWFull() Router { return core.New(core.FullConfig()) }

// NewDTNFLOWWith returns DTN-FLOW with a custom configuration.
func NewDTNFLOWWith(cfg FlowConfig) *core.Router { return core.New(cfg) }

// DefaultFlowConfig returns the paper's DTN-FLOW configuration.
func DefaultFlowConfig() FlowConfig { return core.DefaultConfig() }

// Baseline routers, adapted to landmark-to-landmark routing as in
// Section V-A.
func NewPROPHET() Router { return baselines.NewBase(baselines.NewPROPHET()) }
func NewSimBet() Router  { return baselines.NewBase(baselines.NewSimBet()) }
func NewPGR() Router     { return baselines.NewBase(baselines.NewPGR()) }
func NewGeoComm() Router { return baselines.NewBase(baselines.NewGeoComm()) }
func NewPER() Router     { return baselines.NewBase(baselines.NewPER()) }

// SimOptions configure a Simulate call. Zero values take the paper's
// defaults.
type SimOptions struct {
	Seed       int64
	RatePerDay float64 // packets per day network-wide (default 500)
	PacketSize int64   // bytes (default 1 kB)
	// NodeMemory is the raw node buffer in bytes (default 2000 kB). It
	// is not the memory regime of the paper's figures, which divide the
	// paper's kB by a per-trace factor (Fig. 11's 2000 kB is 16 packets
	// of buffer on DART), so the default run is far less congested.
	NodeMemory int64
	TTL        Time // packet TTL (default 20 days)
	Unit       Time // bandwidth/table time unit (default 3 days)
	Warmup     Time // no packets before this offset (default 1/4 trace)
	// DstLandmark pins every packet's destination landmark when > 0;
	// 0 and negative values draw destinations uniformly. With
	// PerLandmarkDaytime set the value is used as given, so the zero
	// value pins landmark 0 (a negative value still draws uniformly).
	DstLandmark int
	// PerLandmarkDaytime generates RatePerDay packets per landmark,
	// spread over the daytime (the campus deployment's workload).
	PerLandmarkDaytime bool
	// DstNodes addresses every packet to a random node from this slice
	// instead of a landmark (Section IV-E.4 node-routing mode; pair with
	// a router built from a FlowConfig with NodeRouting set).
	DstNodes []int
}

// Simulate runs one trace-driven simulation and returns the summary.
func Simulate(tr *Trace, r Router, opt SimOptions) Summary {
	cfg := sim.DefaultConfig(tr.Duration())
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	if opt.PacketSize > 0 {
		cfg.PacketSize = opt.PacketSize
	}
	if opt.NodeMemory > 0 {
		cfg.NodeMemory = opt.NodeMemory
	}
	if opt.TTL > 0 {
		cfg.TTL = opt.TTL
	}
	if opt.Unit > 0 {
		cfg.Unit = opt.Unit
	}
	if opt.Warmup > 0 {
		cfg.Warmup = opt.Warmup
	}
	rate := opt.RatePerDay
	if rate <= 0 {
		rate = 500
	}
	w := sim.NewWorkload(rate, cfg.PacketSize, cfg.TTL)
	if opt.DstLandmark > 0 || opt.PerLandmarkDaytime {
		w.FixedDst = opt.DstLandmark
		w.PerLandmark = opt.PerLandmarkDaytime
		w.DaytimeOnly = opt.PerLandmarkDaytime
	}
	w.DstNodes = opt.DstNodes
	return sim.New(tr, r, w, cfg).Run().Summary
}

// ExperimentOptions configure RunExperiment.
type ExperimentOptions struct {
	// Scale: "full" (paper dimensions, default), "quick", or "tiny".
	Scale string
	// Seeds per data point (default 1; >1 adds 95% CIs).
	Seeds int
	// Workers bounds parallel simulations (default: all cores).
	Workers int
}

// RunExperiment regenerates one paper artifact by experiment ID (table1,
// fig2–fig16, table6–table10, ablation-*; see ExperimentIDs) and returns
// the rendered report.
func RunExperiment(id string, opt ExperimentOptions) (string, error) {
	e, err := experiment.Get(id)
	if err != nil {
		return "", err
	}
	o := experiment.DefaultOptions()
	if opt.Scale != "" {
		if o.Scale, err = experiment.ParseScale(opt.Scale); err != nil {
			return "", err
		}
	}
	if opt.Seeds > 0 {
		o.Seeds = opt.Seeds
	}
	o.Workers = opt.Workers
	return e.Run(o).String(), nil
}

// ExperimentIDs lists the available experiment IDs.
func ExperimentIDs() []string { return experiment.IDs() }

// PreprocessOptions re-exports the paper's trace-cleaning knobs
// (Section III-B.1): merge neighbouring records, drop short visits, drop
// sparse nodes, merge nearby landmarks.
type PreprocessOptions = trace.PreprocessOptions

// Preprocess applies the paper's trace-cleaning pipeline and returns a new
// densely re-indexed trace.
func Preprocess(tr *Trace, opt PreprocessOptions) *Trace { return trace.Preprocess(tr, opt) }

// SelectLandmarks runs the landmark selection of Section IV-A on a raw
// place-visit trace: the top maxCandidates most-visited places become
// candidates, candidates within minSep meters of a more popular chosen
// landmark are absorbed by it, and the trace is rewritten onto the chosen
// landmark set (visits to absorbed places re-attributed, visits to
// unpopular places dropped). It returns the rewritten trace and the number
// of landmarks chosen.
func SelectLandmarks(tr *Trace, maxCandidates int, minSep float64) (*Trace, int) {
	sel, out := landmark.SelectFromTrace(tr, maxCandidates, minSep)
	return out, len(sel.Chosen)
}
