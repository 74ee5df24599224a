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

// Scenario bundles a trace with the paper's per-trace experiment settings.
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
	RateDef float64 // default packet rate (packets/day network-wide)
	MemDiv  int64   // node-memory scale divisor (>= 1)
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

// Config returns the simulator configuration for this scenario with the
// paper's defaults (Section V-A.1).
func (sc *Scenario) Config(seed int64) sim.Config {
	return sc.config(sc.Trace.Duration(), seed)
}

// config is Config for a trace of the given duration; the scale tier
// passes its generation horizon instead of building the trace.
func (sc *Scenario) config(duration trace.Time, seed int64) sim.Config {
	cfg := sim.DefaultConfig(duration)
	cfg.Seed = seed
	cfg.TTL = sc.TTL
	cfg.Unit = sc.Unit
	cfg.NodeMemory = sc.Memory(2000) // the paper's 2000 kB default
	return cfg
}

// Workload returns the scenario's default workload at the given rate.
func (sc *Scenario) Workload(rate float64) *sim.Workload {
	return sim.NewWorkload(rate, 1024, sc.TTL)
}

// Meta describes a run on this scenario for a telemetry recording
// header (cmd/dtnflow-inspect labels its output from it).
func (sc *Scenario) Meta(method string, seed int64) telemetry.Meta {
	return RunMeta(sc.Name, method, sc.Trace, sc.Config(seed))
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

// DARTScenario returns the DART-like scenario: TTL 20 days, time unit
// 3 days, default rate 500 packets/day. The result is memoized per scale
// and shared (see cache.go); treat it as immutable.
func DARTScenario(scale Scale) *Scenario {
	return cachedScenario("DART", scale, buildDARTScenario)
}

// buildDARTScenario constructs a fresh DART scenario, bypassing the
// process-wide cache (the determinism test compares both paths); a
// nonzero seed replaces the generator's.
func buildDARTScenario(scale Scale, seed int64) *Scenario {
	cfg := synth.DefaultDART()
	if seed != 0 {
		cfg.Seed = seed
	}
	sc := fullSettings["DART"]
	switch scale {
	case Quick:
		// Smaller topology but the same number of warmup time units, so
		// the control plane converges as it does at full scale.
		cfg.Nodes = 120
		cfg.Landmarks = 60
		cfg.Days = 56
		cfg.Communities = 12
		sc.Unit = 3 * trace.Day / 2
		sc.TTL = 10 * trace.Day
	case Tiny:
		cfg.Nodes = 48
		cfg.Landmarks = 24
		cfg.Days = 28
		cfg.Communities = 6
		sc.Unit = trace.Day
		sc.TTL = 7 * trace.Day
		sc.RateDef = 200
	}
	sc.Trace = synth.DART(cfg)
	return &sc
}

// DNETScenario returns the DNET-like scenario: TTL 4 days, time unit half
// a day (the unit used for the DNET trace analysis), default rate 500
// packets/day. The result is memoized per scale and shared (see
// cache.go); treat it as immutable.
func DNETScenario(scale Scale) *Scenario {
	return cachedScenario("DNET", scale, buildDNETScenario)
}

// buildDNETScenario constructs a fresh DNET scenario, bypassing the
// process-wide cache; a nonzero seed replaces the generator's.
func buildDNETScenario(scale Scale, seed int64) *Scenario {
	cfg := synth.DefaultDNET()
	if seed != 0 {
		cfg.Seed = seed
	}
	sc := fullSettings["DNET"]
	switch scale {
	case Quick:
		cfg.Buses = 24
		cfg.Landmarks = 14
		cfg.Days = 20
		cfg.Routes = 6
		cfg.NoiseProb = 0.1
	case Tiny:
		cfg.Buses = 12
		cfg.Landmarks = 10
		cfg.Days = 10
		cfg.Routes = 4
		cfg.NoiseProb = 0.1
		sc.RateDef = 200
	}
	sc.Trace = synth.DNET(cfg)
	return &sc
}

// CampusScenario returns the real-deployment scenario of Section V-C:
// TTL 3 days, time unit 12 hours, 75 packets per landmark per day all
// destined to L1 (the library). The result is memoized per scale and
// shared (see cache.go); treat it as immutable.
func CampusScenario(scale Scale) *Scenario {
	return cachedScenario("CAMPUS", scale, buildCampusScenario)
}

// buildCampusScenario constructs a fresh campus scenario, bypassing the
// process-wide cache; a nonzero seed replaces the generator's.
func buildCampusScenario(scale Scale, seed int64) *Scenario {
	cfg := synth.DefaultCampus()
	if seed != 0 {
		cfg.Seed = seed
	}
	if scale != Full {
		cfg.Days = 7
	}
	sc := fullSettings["CAMPUS"]
	sc.Trace = synth.Campus(cfg)
	return &sc
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
