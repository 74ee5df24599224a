// Package experiment regenerates every table and figure of the paper's
// evaluation (Section V) plus the ablations called out in DESIGN.md. Each
// experiment has an ID (table/figure number), builds its workload, runs the
// routers through the shared simulator, and renders the same rows or series
// the paper reports. Sweeps run their simulations in parallel — each run
// owns its engine and seeded RNG, so results are deterministic regardless
// of scheduling.
package experiment

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Scale selects the size of the synthetic traces: Full matches the paper's
// trace dimensions; Quick is a reduced version for tests and benchmarks.
type Scale string

// Scales.
const (
	Full  Scale = "full"
	Quick Scale = "quick"
	// Tiny is for benchmarks: seconds per simulation, same qualitative
	// structure.
	Tiny Scale = "tiny"
)

// Options configure an experiment run.
type Options struct {
	Scale Scale
	// Seeds is the number of independent seeds per data point (the paper
	// reports 95% confidence intervals). 1 disables CIs.
	Seeds int
	// Workers bounds parallel simulations; 0 = GOMAXPROCS.
	Workers int
	// Store, when non-nil, serves the cells of a cell-based experiment
	// that it already holds and receives every executed result (RunCells).
	Store *Store
}

// DefaultOptions returns full-scale, single-seed options.
func DefaultOptions() Options { return Options{Scale: Full, Seeds: 1} }

// Scenario bundles a trace with the catalogue's per-trace settings.
//
// MemDiv scales the paper's node-memory sizes down to our workload: the
// paper generates packets per landmark per day, so its absolute buffer
// sizes correspond to a traffic volume roughly L times larger than our
// network-wide interpretation (see DESIGN.md). Dividing the memory sizes
// by MemDiv preserves the paper's congestion regime — the ratio of
// in-flight packets to fleet storage — which is what the memory and
// packet-rate sweeps measure.
type Scenario struct {
	Name    string
	Trace   *trace.Trace
	TTL     trace.Time
	Unit    trace.Time
	RateDef float64 // default packet rate (packets/day)
	MemDef  float64 // default node memory, a label in the paper's kB (Memory)
	MemDiv  int64   // node-memory scale divisor (>= 1)
	// PerLandmark makes the rate per landmark, generated in the daytime
	// and all bound for landmark Dst (the campus deployment, Section
	// V-C); otherwise the rate is network-wide with uniform sources and
	// destinations.
	PerLandmark bool
	Dst         int
}

// Memory converts one of the paper's memory sizes (kB) into this
// scenario's node-buffer bytes.
func (sc *Scenario) Memory(kb float64) int64 {
	div := sc.MemDiv
	if div < 1 {
		div = 1
	}
	b := int64(kb*1024) / div
	if b < 1024 {
		b = 1024
	}
	return b
}

// Setup is the one path from a scenario to a run: the engine
// configuration and workload of a run on sc at seed, rate (packets per
// day) and memory (a label in the paper's kB, see Memory), where 0 takes
// the scenario's default (RateDef, MemDef). Cells, the campus
// deployment, dtnflow-sim and dtnflow-inspect -regret all build their
// runs here; the returned values are copies and free to tweak.
func (sc *Scenario) Setup(seed int64, rate, memory float64) (sim.Config, *sim.Workload) {
	return sc.setup(sc.Trace.Duration(), seed, rate, memory)
}

// setup is Setup for a trace of the given duration; the scale tier
// passes its generation horizon instead of building the trace.
func (sc *Scenario) setup(duration trace.Time, seed int64, rate, memory float64) (sim.Config, *sim.Workload) {
	if rate <= 0 {
		rate = sc.RateDef
	}
	if memory <= 0 {
		memory = sc.MemDef
	}
	cfg := sim.DefaultConfig(duration)
	cfg.Seed = seed
	cfg.TTL = sc.TTL
	cfg.Unit = sc.Unit
	cfg.NodeMemory = sc.Memory(memory)
	w := sim.NewWorkload(rate, cfg.PacketSize, sc.TTL)
	if sc.PerLandmark {
		w.PerLandmark, w.DaytimeOnly, w.FixedDst = true, true, sc.Dst
	}
	return cfg, w
}

// Config returns the simulator configuration of a run at seed with the
// scenario's defaults (Setup).
func (sc *Scenario) Config(seed int64) sim.Config {
	cfg, _ := sc.Setup(seed, 0, 0)
	return cfg
}

// RunMeta describes a run of method on tr under cfg for a telemetry
// recording header: the run's identity and the physics dtnflow-inspect
// -regret rebuilds the oracle from.
func RunMeta(scenario, method string, tr *trace.Trace, cfg sim.Config) telemetry.Meta {
	return telemetry.Meta{
		Scenario:            scenario,
		Method:              method,
		Seed:                cfg.Seed,
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
	}
}

// DARTScenario returns the DART-like scenario, memoized per scale and
// shared (see cache.go); treat it as immutable.
func DARTScenario(scale Scale) *Scenario { return cachedScenario("DART", scale) }

// dartTrace generates the DART trace at a scale; a nonzero seed replaces
// the generator's.
func dartTrace(scale Scale, seed int64) *trace.Trace {
	cfg := synth.DefaultDART()
	switch scale {
	case Quick:
		// Smaller topology; the catalogue halves the unit, so the warmup
		// spans as many units and the control plane converges as at Full.
		cfg.Nodes, cfg.Landmarks, cfg.Days, cfg.Communities = 120, 60, 56, 12
	case Tiny:
		cfg.Nodes, cfg.Landmarks, cfg.Days, cfg.Communities = 48, 24, 28, 6
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return synth.DART(cfg)
}

// DNETScenario returns the DNET-like scenario, memoized per scale and
// shared (see cache.go); treat it as immutable.
func DNETScenario(scale Scale) *Scenario { return cachedScenario("DNET", scale) }

// dnetTrace generates the DNET trace at a scale; a nonzero seed replaces
// the generator's.
func dnetTrace(scale Scale, seed int64) *trace.Trace {
	cfg := synth.DefaultDNET()
	switch scale {
	case Quick:
		cfg.Buses, cfg.Landmarks, cfg.Days, cfg.Routes, cfg.NoiseProb = 24, 14, 20, 6, 0.1
	case Tiny:
		cfg.Buses, cfg.Landmarks, cfg.Days, cfg.Routes, cfg.NoiseProb = 12, 10, 10, 4, 0.1
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return synth.DNET(cfg)
}

// campusTrace generates the campus trace at a scale (a week below Full);
// a nonzero seed replaces the generator's.
func campusTrace(scale Scale, seed int64) *trace.Trace {
	cfg := synth.DefaultCampus()
	if scale != Full {
		cfg.Days = 7
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return synth.Campus(cfg)
}

// smallTrace generates the toy trace, the same at every scale; a nonzero
// seed replaces the generator's.
func smallTrace(_ Scale, seed int64) *trace.Trace {
	cfg := synth.DefaultSmall()
	if seed != 0 {
		cfg.Seed = seed
	}
	return synth.Small(cfg)
}

// BothScenarios returns the DART and DNET scenarios.
func BothScenarios(scale Scale) []*Scenario {
	return []*Scenario{DARTScenario(scale), DNETScenario(scale)}
}

// String implements fmt.Stringer.
func (sc *Scenario) String() string {
	return fmt.Sprintf("%s (%d nodes, %d landmarks, %.0fd)",
		sc.Name, sc.Trace.NumNodes, sc.Trace.NumLandmarks,
		float64(sc.Trace.Duration())/float64(trace.Day))
}
