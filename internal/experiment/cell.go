package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// A Cell is one independently executable unit of an experiment: a fully
// serializable request (scenario × method × seed × scale, plus the
// variant it runs) that fingerprints to a stable content-address, so its
// result can be stored and reused by a later process. Cells deliberately
// carry no closures — a Run with a Tweak, Setup hook, probe or checker
// cannot be named by data alone — so every variant an experiment runs is
// data: the memory axis of Figs. 11–12 (Memory), the DTN-FLOW
// configuration of the extension tables and ablations (Flow), Table
// VII's injected loops (Loops), and the oracle's relaxed answer (the
// oracle kind).
type Cell struct {
	// Kind selects the execution path: CellRun (default when empty) is a
	// paper-tier run over a materialized scenario trace; CellOracle is
	// the oracle's relaxed bound for the packets a run cell of the same
	// scenario, scale, seed, rate and memory generates. Scale-tier runs
	// stream another trace family and are not cells (see dtnflow-scale).
	Kind string `json:"kind,omitempty"`
	// Scenario names the catalogue scenario: DART, DNET, CAMPUS or SMALL.
	Scenario string `json:"scenario"`
	// Scale is the trace size: full, quick or tiny.
	Scale string `json:"scale,omitempty"`
	// Method is the routing method (MethodNames); empty for oracle cells.
	Method string `json:"method"`
	// Seed seeds the workload schedule; <= 0 means 1.
	Seed int64 `json:"seed"`
	// Rate is packets/day; 0 means the scenario default (RateDef), and so
	// do a negative rate and the default itself (see normalized).
	Rate float64 `json:"rate,omitempty"`
	// Memory is the node buffer in the paper's kB (Scenario.Memory); 0
	// means the scenario default (MemDef), and so does the default itself.
	Memory float64 `json:"memory,omitempty"`
	// Flow is the DTN-FLOW router configuration of a DTN-FLOW run cell;
	// nil means core.DefaultConfig(), and a Flow equal to it fingerprints
	// as nil, so a default-configured variant is the plain cell.
	Flow *core.Config `json:"flow,omitempty"`
	// Loops is the number of routing loops injected one time unit after
	// warmup (Table VII, injectLoops) into a DTN-FLOW run cell.
	Loops int `json:"loops,omitempty"`
}

// Cell kinds.
const (
	CellRun    = "run"
	CellOracle = "oracle"
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
	if c.kind() == CellOracle {
		return fmt.Sprintf("oracle:%s/%s seed=%d", c.Scenario, c.Scale, c.seed())
	}
	return fmt.Sprintf("%s/%s/%s seed=%d", c.Scenario, c.Scale, c.Method, c.seed())
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
	switch c.kind() {
	case CellRun:
		if !ValidMethod(c.Method) {
			return fmt.Errorf("experiment: unknown method %q", c.Method)
		}
	case CellOracle:
		if c.Method != "" {
			return fmt.Errorf("experiment: method %q on an oracle cell (want none)", c.Method)
		}
	case "scale":
		return fmt.Errorf("experiment: cell kind %q: scale-tier runs stream their own trace family and are not cells (run them with dtnflow-scale)", c.Kind)
	default:
		return fmt.Errorf("experiment: unknown cell kind %q", c.Kind)
	}
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) {
		return fmt.Errorf("experiment: rate %v packets/day (want a finite number)", c.Rate)
	}
	if !(c.Memory >= 0) {
		return fmt.Errorf("experiment: memory %v kB (want >= 0)", c.Memory)
	}
	if (c.Flow != nil || c.Loops != 0) && (c.kind() != CellRun || c.Method != "DTN-FLOW") {
		return fmt.Errorf("experiment: flow configuration or loops on a %s %s cell (DTN-FLOW run cells only)", c.Method, c.kind())
	}
	if c.Loops < 0 {
		return fmt.Errorf("experiment: %d injected loops (want >= 0)", c.Loops)
	}
	if f := c.Flow; f != nil {
		switch {
		case f.NodeRouting:
			return fmt.Errorf("experiment: node routing on a cell (its workload addresses landmarks only)")
		case f.Order < 1:
			return fmt.Errorf("experiment: predictor order %d (want >= 1)", f.Order)
		case !(f.Rho > 0 && f.Rho <= 1):
			return fmt.Errorf("experiment: rho %v (want in (0, 1])", f.Rho)
		case f.DeadEnd && !(f.Gamma > 0):
			return fmt.Errorf("experiment: dead-end gamma %v (want > 0)", f.Gamma)
		}
	}
	if _, err := ParseScale(c.Scale); err != nil {
		return err
	}
	_, err := settingsAt(c.Scenario, Full)
	return err
}

// normalized returns c with its defaults spelled one way: the kind and
// seed made explicit, and a Flow equal to core.DefaultConfig(), a Rate
// that is negative or equal to the scenario's RateDef at the cell's scale
// and a Memory equal to its MemDef dropped, as each runs the default, so
// Fig. 11's default memory row and Fig. 13's default rate row are one
// cell. It reads the catalogue's settings and generates no trace.
func (c Cell) normalized() Cell {
	c.Kind, c.Seed = c.kind(), c.seed()
	if c.Flow != nil && *c.Flow == core.DefaultConfig() {
		c.Flow = nil
	}
	if def, err := settingsAt(c.Scenario, Scale(c.Scale)); err == nil {
		if c.Rate < 0 || c.Rate == def.RateDef {
			c.Rate = 0
		}
		if c.Memory == def.MemDef {
			c.Memory = 0
		}
	}
	return c
}

// Fingerprint returns the cell's canonical fingerprint: the hex SHA-256
// over the canonical JSON of the normalized cell plus the engine version
// (and, for oracle cells, the oracle version). It is the content address
// of the cell's result — equal specs hash equal regardless of field
// order or process, and any engine or oracle behaviour change
// (sim.EngineVersion or oracle.Version bump) invalidates every prior key.
func (c Cell) Fingerprint() (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	n := c.normalized()
	var ov string
	if n.Kind == CellOracle {
		ov = oracle.Version
	}
	return FingerprintJSON(struct {
		Engine string `json:"engine"`
		Oracle string `json:"oracle,omitempty"`
		Cell   Cell   `json:"cell"`
	}{sim.EngineVersion, ov, n})
}

// CellResult is a cell's deterministic outcome — exactly what the
// content-addressed store holds. Timing and cache behaviour never live
// here (the store counts its own hits and puts): a repeated run must
// produce byte-identical results.
type CellResult struct {
	Cell        Cell            `json:"cell"`
	Fingerprint string          `json:"fingerprint"`
	Summary     metrics.Summary `json:"summary"`
	// Counters is the run's exact telemetry aggregate (run cells without
	// a Flow only: configured DTN-FLOW cells keep the probe path dark,
	// because a probe turns off DTN-FLOW's cycle fast-forward and
	// variants such as load balancing or always-upload then replay every
	// round trip of a long contact).
	Counters *telemetry.Counters `json:"counters,omitempty"`
	// Oracle is an oracle cell's relaxed bound and mean delay (the
	// committed pass is skipped); oracle cells leave Summary zero.
	Oracle *OracleSummary `json:"oracle,omitempty"`
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
// and share one warmup (see Sweep); oracle cells run alone;
// costlier cells start first (cellCost). Run cells attach a small
// telemetry recorder — the probe path is verified result-neutral — so
// each result carries its exact counters (see CellResult.Counters for
// the exception). A result never depends on the pool size or grouping.
func ExecuteCells(cells []Cell, workers int, done func(i int, res *CellResult, err error)) {
	var groups []seedGroup
	var members [][]int // cell indices of each group, in run order
	byKey := make(map[string]int)
	// The oracle cells of one scenario share its contact graph, built
	// before the pool starts: the sweep axes change packet gates and
	// schedules, never the contact structure.
	graphs := make(map[*Scenario]*oracle.Graph)
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			done(i, nil, err)
			continue
		}
		key := c.groupKey()
		g, ok := byKey[key]
		if !ok || c.kind() != CellRun {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, seedGroup{cost: cellCost(c)})
			members = append(members, nil)
		}
		// An oracle cell holds a placeholder run: a group of one is
		// never warmed, and the oracle solve runs instead.
		var r Run
		sc, _ := ScenarioByName(c.Scenario, Scale(c.Scale))
		if c.kind() == CellOracle {
			if graphs[sc] == nil {
				graphs[sc] = oracle.Build(sc.Trace, oracle.ConfigFrom(sc.Config(1)), workers)
			}
		} else {
			r = c.run(sc)
			if c.Flow == nil {
				r.Probe = telemetry.NewProbe(telemetry.NewRecorder(1 << 12))
			}
		}
		groups[g].runs = append(groups[g].runs, r)
		members[g] = append(members[g], i)
	}
	runGroups(groups, workers, func(g, k int) {
		i := members[g][k]
		c := cells[i]
		fp, _ := c.Fingerprint()
		res := &CellResult{Cell: c, Fingerprint: fp}
		if c.kind() == CellOracle {
			sc, _ := ScenarioByName(c.Scenario, Scale(c.Scale))
			sum := c.solveOracle(sc, graphs[sc])
			res.Oracle = &sum
		} else {
			res.Summary = groups[g].execute(k)
			if p := groups[g].runs[k].Probe; p != nil {
				counters := p.Recorder().Counters()
				res.Counters = &counters
			}
		}
		done(i, res, nil)
	})
}

// solveOracle solves oracle cell c's relaxed bound over g, the contact
// graph of its scenario sc: the packets are those the run cell of the
// same scenario, scale, seed, rate and memory generates (Scenario.
// OraclePackets), and the committed pass is skipped.
func (c Cell) solveOracle(sc *Scenario, g *oracle.Graph) OracleSummary {
	cfg, w := c.Setup(sc)
	ocfg := oracle.ConfigFrom(cfg)
	ocfg.Workers = 1 // the pool already parallelises across cells
	ocfg.SkipCommitted = true
	return oracleSummary(sc.Name, c.seed(), w.Rate, "", oracle.Solve(g, ocfg, sc.OraclePackets(cfg, w, sc.Trace)))
}

// executeCells runs the cells the store misses; tests swap it to make
// cells fail during execution, which no valid cell does.
var executeCells = ExecuteCells

// RunCells executes cells on a pool of opt.Workers goroutines and
// returns their results in input order. It fingerprints every cell
// before executing any, so a malformed cell fails before anything runs;
// serves the cells opt.Store holds, when it is set; executes the rest
// with ExecuteCells and stores each executed result (a failed store put
// is not fatal: the result is still returned). opt.Store counts the
// cells it served and stored. If cells fail, RunCells returns the error
// of the lowest failing index, whatever the pool size.
//
// Every result is the one ExecuteCell gives its cell alone — the path
// the golden corpus pins — and lands at its input index, so the results
// are byte-identical for any pool size, completion order, seed grouping
// or cache state.
func RunCells(cells []Cell, opt Options) ([]*CellResult, error) {
	results := make([]*CellResult, len(cells))
	var misses []int // indices of the cells in pending
	var pending []Cell
	for i, c := range cells {
		fp, err := c.Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("experiment: cell %d: %w", i, err)
		}
		if opt.Store != nil {
			if res, ok := opt.Store.Get(fp); ok {
				res.Cell = c // another spelling of the cell may have stored it
				results[i] = res
				continue
			}
		}
		misses, pending = append(misses, i), append(pending, c)
	}

	errs := make([]error, len(cells))
	executeCells(pending, opt.Workers, func(k int, res *CellResult, err error) {
		i := misses[k]
		if err != nil {
			errs[i] = fmt.Errorf("experiment: cell %d (%s): %w", i, cells[i], err)
			return
		}
		if opt.Store != nil {
			_ = opt.Store.Put(res)
		}
		results[i] = res
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// cellSummaries runs cells through RunCells (opt.Store serves the
// cells it holds) and returns their summaries in cell order.
func cellSummaries(opt Options, cells []Cell) []metrics.Summary {
	results, err := RunCells(cells, opt)
	if err != nil {
		panic(err)
	}
	sums := make([]metrics.Summary, len(results))
	for i, r := range results {
		sums[i] = r.Summary
	}
	return sums
}

// Router builds a fresh router for run cell c: its method's, or DTN-FLOW
// under c.Flow.
func (c Cell) Router() sim.Router {
	if c.Flow != nil {
		return core.New(*c.Flow)
	}
	return NewRouter(c.Method)
}

// Setup returns the engine configuration and workload of cell c on sc
// (Scenario.Setup at the cell's seed, rate and memory).
func (c Cell) Setup(sc *Scenario) (sim.Config, *sim.Workload) { return c.run(sc).setup() }

// run returns the engine run of run cell c on sc, the scenario its name
// resolves to (or a trace file's, for dtnflow-sim); an oracle cell's
// packets and physics are those of the same run.
func (c Cell) run(sc *Scenario) Run {
	r := Run{Scenario: sc, Router: c.Router, Rate: c.Rate, Memory: c.Memory, Seed: c.seed()}
	if c.Loops > 0 {
		r.Setup = injectLoops(c.Loops)
	}
	return r
}

// cellCost ranks a cell for longest-first dispatch; it only has to order
// cells, not predict wall time. Full runs come first, then quick and
// tiny runs, each by the scenario's RunCost. An oracle solve costs a
// fraction of its run, so oracle cells start after the runs of their
// tier.
func cellCost(c Cell) float64 {
	tier := 1.0
	switch Scale(c.Scale) {
	case Full:
		tier = 50
	case Quick:
		tier = 10
	}
	if c.kind() == CellOracle {
		tier /= 10
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

// GoldenCells returns the cells of the golden corpus: every method on
// both Tiny scenarios at the default rate, seed 1 — the exact runs
// TestGoldenRuns pins.
func GoldenCells() []Cell {
	return SweepCells([]string{"DART", "DNET"}, Tiny, MethodNames, 1, 0)
}

// CellGroup is one (scenario, method) group of a merged sweep with its
// seeds averaged.
type CellGroup struct {
	Scenario string
	Method   string
	Seeds    int
	Averaged Averaged
}

// groupKey is the canonical JSON of the normalized cell with its seed
// erased: cells with equal keys are seeds of one configuration. It
// compares Flow by value, which a Cell map key would compare by address.
func (c Cell) groupKey() string {
	n := c.normalized()
	n.Seed = 0
	blob, err := CanonicalJSON(n)
	if err != nil {
		panic(err) // Validate refuses the non-finite numbers JSON cannot encode
	}
	return string(blob)
}

// MergeAverages groups index-aligned results by everything except the
// seed (in first-appearance order) and averages each group — the cells'
// equivalent of Sweep's per-point Average fold.
func MergeAverages(results []*CellResult) []CellGroup {
	var out []CellGroup
	var sums [][]metrics.Summary
	index := make(map[string]int)
	for _, r := range results {
		if r == nil {
			continue
		}
		k := r.Cell.groupKey()
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, CellGroup{Scenario: r.Cell.Scenario, Method: r.Cell.Method})
			sums = append(sums, nil)
		}
		sums[i] = append(sums[i], r.Summary)
	}
	for i := range out {
		out[i].Seeds, out[i].Averaged = len(sums[i]), Average(sums[i])
	}
	return out
}
