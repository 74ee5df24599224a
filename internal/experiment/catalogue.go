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

// settings are each scenario name's run settings per scale, as data
// without a trace; a scale a name lists nothing for runs at its Full
// settings, the paper's (Section V-A; the campus deployment of Section
// V-C). SMALL is the command-line tools' toy trace.
var settings = map[string]map[Scale]Scenario{
	"DART": {
		Full:  {Name: "DART", TTL: 20 * trace.Day, Unit: 3 * trace.Day, RateDef: 500, MemDef: 2000, MemDiv: 120},
		Quick: {Name: "DART", TTL: 10 * trace.Day, Unit: 3 * trace.Day / 2, RateDef: 500, MemDef: 2000, MemDiv: 120},
		Tiny:  {Name: "DART", TTL: 7 * trace.Day, Unit: trace.Day, RateDef: 200, MemDef: 2000, MemDiv: 120},
	},
	"DNET": {
		Full: {Name: "DNET", TTL: 4 * trace.Day, Unit: trace.Day / 2, RateDef: 500, MemDef: 2000, MemDiv: 60},
		Tiny: {Name: "DNET", TTL: 4 * trace.Day, Unit: trace.Day / 2, RateDef: 200, MemDef: 2000, MemDiv: 60},
	},
	"CAMPUS": {Full: {Name: "CAMPUS", TTL: 3 * trace.Day, Unit: 12 * trace.Hour, RateDef: 75, MemDef: 50, MemDiv: 1,
		PerLandmark: true, Dst: synth.CampusL1}},
	"SMALL": {Full: {Name: "SMALL", TTL: 2 * trace.Day, Unit: 12 * trace.Hour, RateDef: 500, MemDef: 2000, MemDiv: 1}},
}

// traces generate each scenario's trace at a scale; a nonzero seed
// replaces the generator's.
var traces = map[string]func(Scale, int64) *trace.Trace{
	"DART": dartTrace, "DNET": dnetTrace, "CAMPUS": campusTrace, "SMALL": smallTrace,
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

// settingsAt returns the named scenario's settings at scale, without a
// trace; it generates nothing.
func settingsAt(name string, scale Scale) (Scenario, error) {
	byScale, ok := settings[name]
	if !ok {
		return Scenario{}, fmt.Errorf("experiment: unknown scenario %q (want DART, DNET, CAMPUS or SMALL)", name)
	}
	if sc, ok := byScale[scale]; ok {
		return sc, nil
	}
	return byScale[Full], nil
}

// buildScenario generates a fresh scenario, bypassing the process-wide
// cache (the determinism test compares both paths); a nonzero seed
// replaces the generator's.
func buildScenario(name string, scale Scale, seed int64) *Scenario {
	sc, _ := settingsAt(name, scale)
	sc.Trace = traces[name](scale, seed)
	return &sc
}

// ScenarioByName returns the memoized scenario for a cell's scenario name.
func ScenarioByName(name string, scale Scale) (*Scenario, error) {
	if _, err := settingsAt(name, scale); err != nil {
		return nil, err
	}
	return cachedScenario(name, scale), nil
}

// LoadTrace resolves a command-line trace name to a scenario at Full
// settings: dart, dnet, campus and small are the catalogue's generated
// traces, and any other name is a trace file, run at the settings of
// the trace name in its header (MemDiv and workload included); a file
// whose trace name has no settings is refused. A nonzero seed replaces
// the generator's seed; a trace file ignores it.
func LoadTrace(name string, seed int64) (*Scenario, error) {
	switch name {
	case "dart", "dnet", "campus", "small":
		return buildScenario(strings.ToUpper(name), Full, seed), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	sc, err := settingsAt(tr.Name, Full)
	if err != nil {
		return nil, fmt.Errorf("%s: trace name %q has no settings (want DART, DNET, CAMPUS or SMALL)", name, tr.Name)
	}
	sc.Trace = tr
	return &sc, nil
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
		return scaled{settings["DART"][Full], cfg.Nodes, cfg.Landmarks, cfg.Days,
			func() trace.Source { return synth.DARTSource(cfg) }}, nil
	case "DNET":
		cfg := sp.dnetConfig()
		return scaled{settings["DNET"][Full], cfg.Buses, cfg.Landmarks, cfg.Days,
			func() trace.Source { return synth.DNETSource(cfg) }}, nil
	default:
		return scaled{}, fmt.Errorf("experiment: unknown scale scenario %q (want DART or DNET)", sp.Scenario)
	}
}
