package experiment

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/synth"
	"repro/internal/trace"
)

// The scenario catalogue: every scenario and trace name the tools accept
// is resolved in this file, each to the paper's settings for it and the
// generator behind it, so what a name means is decided in one place.

// fullSettings are the paper's per-trace settings at Full scale, without
// the trace: DART's 20-day TTL and 3-day unit and DNET's 4-day TTL and
// half-day unit (Section V-A), and the campus deployment's 3-day TTL and
// 12-hour unit (Section V-C). SMALL is the toy trace's 2-day TTL and
// 12-hour unit; only the command-line tools run it. The reduced scales
// override some of them; the scale tier reads them as they are.
var fullSettings = map[string]Scenario{
	"DART":   {Name: "DART", TTL: 20 * trace.Day, Unit: 3 * trace.Day, RateDef: 500, MemDiv: 120},
	"DNET":   {Name: "DNET", TTL: 4 * trace.Day, Unit: trace.Day / 2, RateDef: 500, MemDiv: 60},
	"CAMPUS": {Name: "CAMPUS", TTL: 3 * trace.Day, Unit: 12 * trace.Hour, RateDef: 75},
	"SMALL":  {Name: "SMALL", TTL: 2 * trace.Day, Unit: 12 * trace.Hour},
}

// runCost ranks the scenarios by the cost of a run: DART traces carry
// more visits than DNET, which carries more than CAMPUS.
var runCost = map[string]float64{"DART": 3, "DNET": 2, "CAMPUS": 1.5}

// RunCost returns the scenario's relative run cost for longest-first
// dispatch; an unknown name ranks 1.
func RunCost(name string) float64 {
	if c, ok := runCost[name]; ok {
		return c
	}
	return 1
}

// builders construct each scenario at a scale; a nonzero seed replaces
// the generator's default seed.
var builders = map[string]func(Scale, int64) *Scenario{
	"DART":   buildDARTScenario,
	"DNET":   buildDNETScenario,
	"CAMPUS": buildCampusScenario,
}

// ScenarioByName returns the memoized scenario for a cell's scenario name.
func ScenarioByName(name string, scale Scale) (*Scenario, error) {
	build, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown scenario %q (want DART, DNET or CAMPUS)", name)
	}
	return cachedScenario(name, scale, build), nil
}

// LoadTrace resolves a command-line trace name to a trace with its packet
// TTL and time unit: dart, dnet and campus are the Full scenarios' traces,
// small is the toy trace, and any other name is a trace file. Every trace
// runs with the Full settings of its trace name (a file's from its
// header), and a trace name with no settings is refused. A nonzero seed
// replaces the generator's default seed; a trace file ignores it.
func LoadTrace(name string, seed int64) (tr *trace.Trace, ttl, unit trace.Time, err error) {
	switch name {
	case "dart", "dnet", "campus":
		tr = builders[strings.ToUpper(name)](Full, seed).Trace
	case "small":
		cfg := synth.DefaultSmall()
		if seed != 0 {
			cfg.Seed = seed
		}
		tr = synth.Small(cfg)
	default:
		f, err := os.Open(name)
		if err != nil {
			return nil, 0, 0, err
		}
		defer f.Close()
		if tr, err = trace.Read(f); err != nil {
			return nil, 0, 0, fmt.Errorf("parsing %s: %w", name, err)
		}
	}
	sc, ok := fullSettings[tr.Name]
	if !ok {
		return nil, 0, 0, fmt.Errorf("%s: trace name %q has no settings (want DART, DNET, CAMPUS or SMALL)", name, tr.Name)
	}
	return tr, sc.TTL, sc.Unit, nil
}

// scaled is a scale-tier scenario resolved from the catalogue: its Full
// settings, its scaled population and generation horizon, and a factory
// of fresh streaming sources.
type scaled struct {
	base             Scenario
	nodes, landmarks int
	days             int
	open             func() trace.Source
}

// resolve looks the spec's scenario up; only DART and DNET have
// streaming generators.
func (sp ScaleSpec) resolve() (scaled, error) {
	switch sp.Scenario {
	case "DART":
		cfg := sp.dartConfig()
		return scaled{fullSettings["DART"], cfg.Nodes, cfg.Landmarks, cfg.Days,
			func() trace.Source { return synth.DARTSource(cfg) }}, nil
	case "DNET":
		cfg := sp.dnetConfig()
		return scaled{fullSettings["DNET"], cfg.Buses, cfg.Landmarks, cfg.Days,
			func() trace.Source { return synth.DNETSource(cfg) }}, nil
	default:
		return scaled{}, fmt.Errorf("experiment: unknown scale scenario %q (want DART or DNET)", sp.Scenario)
	}
}
