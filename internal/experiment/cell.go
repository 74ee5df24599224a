package experiment

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// A Cell is one independently executable unit of a sweep: a fully
// serializable run request (scenario × method × seed × scale) that
// fingerprints to a stable content-address, so its result can be stored
// and reused by a later process. Cells deliberately carry no closures —
// a Run with a Tweak, Setup hook, probe or checker cannot be named by
// data alone and cannot be a cell; the memory axis of Figs. 11–12 is
// data (Memory), so every figure-sweep run is a cell.
type Cell struct {
	// Kind selects the execution path: CellRun (default when empty) is a
	// paper-tier run over a materialized scenario trace; CellScale is a
	// scale-tier run over a streamed population.
	Kind string `json:"kind,omitempty"`
	// Scenario names the trace: DART, DNET or CAMPUS (run cells); DART or
	// DNET (scale cells).
	Scenario string `json:"scenario"`
	// Scale is the trace size for run cells: full, quick or tiny. Scale
	// cells ignore it (their base is always the Full generator config).
	Scale string `json:"scale,omitempty"`
	// Method is the routing method (MethodNames).
	Method string `json:"method"`
	// Seed seeds the workload schedule; <= 0 means 1.
	Seed int64 `json:"seed"`
	// Rate is packets/day network-wide; 0 means the scenario default.
	Rate float64 `json:"rate,omitempty"`
	// Memory is the node buffer in the paper's kB (Scenario.Memory) for
	// run cells; 0 means the scenario default.
	Memory float64 `json:"memory,omitempty"`
	// Mult is the population multiplier for scale cells; ignored for run
	// cells.
	Mult int `json:"mult,omitempty"`
}

// Cell kinds.
const (
	CellRun   = "run"
	CellScale = "scale"
)

func (c Cell) kind() string {
	if c.Kind == "" {
		return CellRun
	}
	return c.Kind
}

func (c Cell) seed() int64 {
	if c.Seed <= 0 {
		return 1
	}
	return c.Seed
}

// String renders the cell for progress reports and errors.
func (c Cell) String() string {
	switch c.kind() {
	case CellScale:
		return fmt.Sprintf("scale:%s/%d×/%s seed=%d", c.Scenario, c.Mult, c.Method, c.seed())
	default:
		return fmt.Sprintf("%s/%s/%s seed=%d", c.Scenario, c.Scale, c.Method, c.seed())
	}
}

// ValidMethod reports whether name is a known routing method.
func ValidMethod(name string) bool {
	for _, m := range MethodNames {
		if m == name {
			return true
		}
	}
	return false
}

// ParseScale maps a scale name to its Scale, rejecting unknown names
// (cells come from flags and stored results, so unknown values must be
// errors, not silent defaults).
func ParseScale(name string) (Scale, error) {
	switch Scale(name) {
	case Full, Quick, Tiny:
		return Scale(name), nil
	default:
		return "", fmt.Errorf("experiment: unknown scale %q (want full, quick or tiny)", name)
	}
}

// Validate checks the cell without executing it; every execution and
// fingerprinting path calls it first so a malformed cell fails the same
// way everywhere.
func (c Cell) Validate() error {
	if !ValidMethod(c.Method) {
		return fmt.Errorf("experiment: unknown method %q", c.Method)
	}
	if !(c.Memory >= 0) || c.Memory > 0 && c.kind() != CellRun {
		return fmt.Errorf("experiment: memory %v kB on a %s cell (want >= 0, run cells only)", c.Memory, c.kind())
	}
	switch c.kind() {
	case CellRun:
		if _, err := ParseScale(c.Scale); err != nil {
			return err
		}
		if _, err := ScenarioByName(c.Scenario, Tiny); err != nil {
			return err
		}
	case CellScale:
		if _, err := (ScaleSpec{Scenario: c.Scenario}).resolve(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("experiment: unknown cell kind %q", c.Kind)
	}
	return nil
}

// Fingerprint returns the cell's canonical run fingerprint: the hex
// SHA-256 over the canonical JSON of the normalized cell plus the engine
// version. It is the content address of the cell's result — equal specs
// hash equal regardless of field order or process, and any engine
// behaviour change (sim.EngineVersion bump) invalidates every prior key.
func (c Cell) Fingerprint() (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	n := c
	n.Kind = c.kind()
	n.Seed = c.seed()
	return FingerprintJSON(struct {
		Engine string `json:"engine"`
		Cell   Cell   `json:"cell"`
	}{sim.EngineVersion, n})
}

// CellResult is a cell's deterministic outcome — exactly what the
// content-addressed store holds. Timing and cache behaviour live in the
// CellReport, never here: a repeated run must produce byte-identical
// results.
type CellResult struct {
	Cell        Cell            `json:"cell"`
	Fingerprint string          `json:"fingerprint"`
	Summary     metrics.Summary `json:"summary"`
	// Counters is the run's exact telemetry aggregate (run cells only;
	// scale cells keep the probe path dark).
	Counters *telemetry.Counters `json:"counters,omitempty"`
}

// ExecuteCell runs one cell to completion in this process and returns
// its deterministic result (see ExecuteCells).
func ExecuteCell(c Cell) (res *CellResult, err error) {
	ExecuteCells([]Cell{c}, 1, func(_ int, r *CellResult, e error) { res, err = r, e })
	return res, err
}

// ExecuteCells runs cells on a pool of workers goroutines (<= 0 means
// GOMAXPROCS) and calls done(i, result, err) once per cell, on the
// goroutine that ran it. Run cells equal up to Seed form one seed group
// and share one warmup (see Sweep); scale cells run alone; costlier cells
// start first (cellCost). Run cells attach a small telemetry recorder —
// the probe path is verified result-neutral — so each result carries its
// exact counters. A result never depends on the pool size or grouping.
func ExecuteCells(cells []Cell, workers int, done func(i int, res *CellResult, err error)) {
	var groups []seedGroup
	var members [][]int // cell indices of each group, in run order
	byKey := make(map[Cell]int)
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			done(i, nil, err)
			continue
		}
		g, ok := byKey[c.groupKey()]
		if !ok || c.kind() == CellScale {
			g = len(groups)
			byKey[c.groupKey()] = g
			groups = append(groups, seedGroup{cost: cellCost(c)})
			members = append(members, nil)
		}
		// A scale cell's group holds a placeholder run: a group of one is
		// never warmed, and the sharded engine runs the cell instead.
		var r Run
		if c.kind() == CellRun {
			sc, _ := ScenarioByName(c.Scenario, Scale(c.Scale))
			r = c.run(sc)
			r.Probe = telemetry.NewProbe(telemetry.NewRecorder(1 << 12))
		}
		groups[g].runs = append(groups[g].runs, r)
		members[g] = append(members[g], i)
	}
	runGroups(groups, workers, func(g, k int) {
		i := members[g][k]
		c := cells[i]
		fp, _ := c.Fingerprint()
		res := &CellResult{Cell: c, Fingerprint: fp}
		if p := groups[g].runs[k].Probe; p != nil {
			res.Summary = groups[g].execute(k)
			counters := p.Recorder().Counters()
			res.Counters = &counters
		} else {
			sp := ScaleSpec{Scenario: c.Scenario, Mult: c.Mult, Rate: c.Rate, Seed: c.seed()}
			sr, err := sp.RunSharded(c.Method, sim.ShardConfig{})
			if err != nil {
				done(i, nil, err)
				return
			}
			res.Summary = sr.Summary
		}
		done(i, res, nil)
	})
}

// executeCells runs the cells the store misses; tests swap it to make
// cells fail during execution, which no valid cell does.
var executeCells = ExecuteCells

// CellReport summarizes one RunCells for progress output and the
// fleet-smoke gate. It carries the nondeterministic facts (timing, cache
// behaviour) that must stay out of CellResult.
type CellReport struct {
	Cells     int     `json:"cells"`
	CacheHits int     `json:"cache_hits"`
	Executed  int     `json:"executed"`
	WallSec   float64 `json:"wall_sec"`
}

// RunCells executes cells on a pool of opt.Workers goroutines and
// returns their results in input order. It fingerprints every cell
// before executing any, so a malformed cell fails before anything runs;
// serves the cells opt.Store holds, when it is set; executes the rest
// with ExecuteCells and stores each executed result. A non-nil progress
// receives one line per executed cell. If cells fail, RunCells returns
// the error of the lowest failing index, whatever the pool size.
//
// Every result is the one ExecuteCell gives its cell alone — the path
// the golden corpus pins — and lands at its input index, so the results
// are byte-identical for any pool size, completion order, seed grouping
// or cache state.
func RunCells(cells []Cell, opt Options, progress io.Writer) ([]*CellResult, CellReport, error) {
	t0 := time.Now()
	rep := CellReport{Cells: len(cells)}
	finish := func() CellReport {
		rep.WallSec = time.Since(t0).Seconds()
		return rep
	}
	logf := func(format string, args ...any) {
		if progress != nil {
			fmt.Fprintf(progress, "cells: "+format+"\n", args...)
		}
	}

	results := make([]*CellResult, len(cells))
	var misses []int // indices of the cells in pending
	var pending []Cell
	for i, c := range cells {
		fp, err := c.Fingerprint()
		if err != nil {
			return nil, finish(), fmt.Errorf("experiment: cell %d: %w", i, err)
		}
		if opt.Store != nil {
			if res, ok := opt.Store.Get(fp); ok {
				results[i] = res
				rep.CacheHits++
				continue
			}
		}
		misses, pending = append(misses, i), append(pending, c)
	}
	if rep.CacheHits > 0 {
		logf("%d/%d cells already in store", rep.CacheHits, len(cells))
	}

	errs := make([]error, len(cells))
	var mu sync.Mutex
	executeCells(pending, opt.Workers, func(k int, res *CellResult, err error) {
		i := misses[k]
		if err != nil {
			errs[i] = fmt.Errorf("experiment: cell %d (%s): %w", i, cells[i], err)
			return
		}
		var putErr error
		if opt.Store != nil {
			putErr = opt.Store.Put(res)
		}
		results[i] = res
		mu.Lock()
		defer mu.Unlock()
		if putErr != nil {
			logf("store put failed (continuing): %v", putErr)
		}
		rep.Executed++
		s := res.Summary
		logf("[%d/%d] %s: generated=%d delivered=%d forwarded=%d",
			rep.CacheHits+rep.Executed, len(cells), res.Cell, s.Generated, s.Delivered, s.Forwarding)
	})
	for _, err := range errs {
		if err != nil {
			return nil, finish(), err
		}
	}
	return results, finish(), nil
}

// run returns the engine run of run cell c on its scenario sc.
func (c Cell) run(sc *Scenario) Run {
	r := Run{Scenario: sc, Router: routerFactory(c.Method), Rate: c.Rate, Seed: c.seed()}
	if kb := c.Memory; kb > 0 {
		r.Tweak = func(cfg *sim.Config) { cfg.NodeMemory = sc.Memory(kb) }
	}
	return r
}

// cellCost ranks a cell for longest-first dispatch; it only has to order
// cells, not predict wall time. Scale cells grow with the multiplier and
// outweigh every paper-tier run (a 1× scale run already covers the Full
// trace); then come full, quick and tiny runs, each by the scenario's
// RunCost.
func cellCost(c Cell) float64 {
	tier := 1.0
	switch {
	case c.kind() == CellScale:
		tier = 100 * float64(max(c.Mult, 1))
	case c.Scale == string(Full):
		tier = 50
	case c.Scale == string(Quick):
		tier = 10
	}
	return tier * RunCost(c.Scenario)
}

// SweepCells decomposes a (scenario × method × seed) sweep at one scale
// into run cells, scenario-major then method-major then seed — the
// canonical order every merge helper assumes.
func SweepCells(scenarios []string, scale Scale, methods []string, seeds int, rate float64) []Cell {
	if seeds < 1 {
		seeds = 1
	}
	cells := make([]Cell, 0, len(scenarios)*len(methods)*seeds)
	for _, sc := range scenarios {
		for _, m := range methods {
			for s := 1; s <= seeds; s++ {
				cells = append(cells, Cell{
					Kind: CellRun, Scenario: sc, Scale: string(scale),
					Method: m, Seed: int64(s), Rate: rate,
				})
			}
		}
	}
	return cells
}

// ScaleCells decomposes a scale-tier (scenario × method × mult) sweep
// into scale cells in the same canonical order.
func ScaleCells(scenarios []string, methods []string, mults []int, seed int64) []Cell {
	cells := make([]Cell, 0, len(scenarios)*len(methods)*len(mults))
	for _, sc := range scenarios {
		for _, m := range methods {
			for _, mult := range mults {
				cells = append(cells, Cell{
					Kind: CellScale, Scenario: sc, Method: m, Mult: mult, Seed: seed,
				})
			}
		}
	}
	return cells
}

// GoldenCells returns the cells of the golden corpus: every method on
// both Tiny scenarios at the default rate, seed 1 — the exact runs
// TestGoldenRuns pins.
func GoldenCells() []Cell {
	return SweepCells([]string{"DART", "DNET"}, Tiny, MethodNames, 1, 0)
}

// MergeByScenario folds index-aligned cell results into per-scenario
// method→summary maps — the golden corpus shape. The fold depends only
// on the cell order, never on completion order, so any scheduling of the
// same cells assembles the same value.
func MergeByScenario(results []*CellResult) map[string]map[string]metrics.Summary {
	out := make(map[string]map[string]metrics.Summary)
	for _, r := range results {
		if r == nil {
			continue
		}
		m := out[r.Cell.Scenario]
		if m == nil {
			m = make(map[string]metrics.Summary)
			out[r.Cell.Scenario] = m
		}
		m[r.Cell.Method] = r.Summary
	}
	return out
}

// CellGroup is one (scenario, method) group of a merged sweep with its
// seeds averaged.
type CellGroup struct {
	Scenario string
	Method   string
	Seeds    int
	Averaged Averaged
}

// groupKey is the cell with its seed erased: cells with equal keys are
// seeds of one configuration.
func (c Cell) groupKey() Cell {
	c.Kind, c.Seed = c.kind(), 0
	return c
}

// MergeAverages groups index-aligned results by everything except the
// seed (in first-appearance order) and averages each group — the cells'
// equivalent of Sweep's per-point Average fold.
func MergeAverages(results []*CellResult) []CellGroup {
	var order []Cell
	groups := make(map[Cell][]metrics.Summary)
	for _, r := range results {
		if r == nil {
			continue
		}
		k := r.Cell.groupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r.Summary)
	}
	out := make([]CellGroup, 0, len(order))
	for _, k := range order {
		sums := groups[k]
		out = append(out, CellGroup{Scenario: k.Scenario, Method: k.Method, Seeds: len(sums), Averaged: Average(sums)})
	}
	return out
}
