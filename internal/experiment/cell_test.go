package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/sim"
)

func TestSweepCellsOrder(t *testing.T) {
	cells := SweepCells([]string{"DART", "DNET"}, Tiny, []string{"A", "B"}, 2, 0)
	want := []string{
		"DART/A/1", "DART/A/2", "DART/B/1", "DART/B/2",
		"DNET/A/1", "DNET/A/2", "DNET/B/1", "DNET/B/2",
	}
	if len(cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		got := c.Scenario + "/" + c.Method + "/" + string(rune('0'+c.Seed))
		if got != want[i] {
			t.Errorf("cell %d: got %s, want %s", i, got, want[i])
		}
		if c.Kind != CellRun || c.Scale != string(Tiny) {
			t.Errorf("cell %d: kind %q scale %q", i, c.Kind, c.Scale)
		}
	}
}

func TestGoldenCells(t *testing.T) {
	cells := GoldenCells()
	if len(cells) != 2*len(MethodNames) {
		t.Fatalf("got %d golden cells, want %d", len(cells), 2*len(MethodNames))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c, err)
		}
		if c.Seed != 1 || c.Rate != 0 {
			t.Errorf("%s: golden cells must be seed 1 at the default rate", c)
		}
		fp, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if seen[fp] {
			t.Errorf("duplicate fingerprint for %s", c)
		}
		seen[fp] = true
	}
}

// mergeByScenario folds index-aligned cell results into per-scenario
// method→summary maps — the golden corpus shape. The fold depends only
// on the cell order, never on completion order, so any scheduling of the
// same cells assembles the same value.
func mergeByScenario(results []*CellResult) map[string]map[string]metrics.Summary {
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

func TestMergeByScenario(t *testing.T) {
	results := []*CellResult{
		{Cell: Cell{Scenario: "DART", Method: "A"}, Summary: metrics.Summary{Generated: 1}},
		{Cell: Cell{Scenario: "DART", Method: "B"}, Summary: metrics.Summary{Generated: 2}},
		nil, // a skipped cell must not panic the merge
		{Cell: Cell{Scenario: "DNET", Method: "A"}, Summary: metrics.Summary{Generated: 3}},
	}
	m := mergeByScenario(results)
	if len(m) != 2 || len(m["DART"]) != 2 || len(m["DNET"]) != 1 {
		t.Fatalf("bad merge shape: %+v", m)
	}
	if m["DART"]["B"].Generated != 2 || m["DNET"]["A"].Generated != 3 {
		t.Errorf("merge misassigned summaries: %+v", m)
	}
}

func TestMergeAverages(t *testing.T) {
	mk := func(sc, m string, seed int64, succ float64) *CellResult {
		return &CellResult{
			Cell:    Cell{Scenario: sc, Scale: "tiny", Method: m, Seed: seed},
			Summary: metrics.Summary{Method: m, SuccessRate: succ},
		}
	}
	groups := MergeAverages([]*CellResult{
		mk("DART", "A", 1, 0.4), mk("DART", "A", 2, 0.6),
		mk("DART", "B", 1, 1.0),
	})
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if g := groups[0]; g.Method != "A" || g.Seeds != 2 || g.Averaged.Success != 0.5 {
		t.Errorf("group A wrong: %+v", g)
	}
	if g := groups[1]; g.Method != "B" || g.Seeds != 1 || g.Averaged.Success != 1.0 {
		t.Errorf("group B wrong: %+v", g)
	}
}

// TestExecuteCellMatchesRun pins the fleet's execution path to the
// single-process one: ExecuteCell (which attaches a telemetry recorder)
// must produce the exact summary of a plain Run — the probe path is
// result-neutral, so a fleet sweep byte-matches the golden corpus.
func TestExecuteCellMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	for _, method := range []string{"DTN-FLOW", "PROPHET"} {
		cell := Cell{Scenario: "DART", Scale: "tiny", Method: method, Seed: 1}
		res, err := ExecuteCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		plain := Run{Scenario: DARTScenario(Tiny), Router: routerFactory(method), Seed: 1}.Execute()
		if SummaryFingerprint(res.Summary) != SummaryFingerprint(plain) {
			t.Errorf("%s: cell execution diverged from plain run:\ncell  %+v\nplain %+v", method, res.Summary, plain)
		}
		if res.Counters == nil || res.Counters.Events["generated"] != uint64(plain.Generated) {
			t.Errorf("%s: cell counters missing or inconsistent: %+v", method, res.Counters)
		}
		if fp, _ := cell.Fingerprint(); fp != res.Fingerprint {
			t.Errorf("%s: result fingerprint %s != cell fingerprint %s", method, res.Fingerprint, fp)
		}
	}
}

// TestMemoryCell pins the memory axis as data: a cell's Memory (kB) runs
// exactly the run whose config tweak sets NodeMemory = Scenario.Memory,
// and a cell without it encodes no memory key, so the fingerprints and
// store entries of memory-less cells are those they always had.
func TestMemoryCell(t *testing.T) {
	if blob, _ := json.Marshal(Cell{Scenario: "DNET", Scale: "tiny", Method: "DTN-FLOW"}); strings.Contains(string(blob), "memory") {
		t.Errorf("memory-less cell encodes a memory key: %s", blob)
	}
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	sc := DNETScenario(Tiny)
	res, err := ExecuteCell(Cell{Scenario: "DNET", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Memory: 300})
	if err != nil {
		t.Fatal(err)
	}
	plain := Run{Scenario: sc, Router: routerFactory("DTN-FLOW"), Seed: 1,
		Tweak: func(c *sim.Config) { c.NodeMemory = sc.Memory(300) }}.Execute()
	if SummaryFingerprint(res.Summary) != SummaryFingerprint(plain) {
		t.Errorf("memory cell diverged from the tweaked run:\ncell  %+v\nplain %+v", res.Summary, plain)
	}
}

// TestFigureSweepStore runs experiments against one store: a figure
// sweep twice, and Table VIII then Table IX, which read the same runs.
// The second run of each pair must execute no cell and render the report
// it renders without a store.
func TestFigureSweepStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full Tiny simulations")
	}
	for _, ids := range [][2]string{{"fig12", "fig12"}, {"table8", "table9"}} {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Scale: Tiny, Store: store}
		for run, id := range ids {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want := e.Run(Options{Scale: Tiny}).String()
			_, before := store.Counts()
			if got := e.Run(opt).String(); got != want {
				t.Errorf("%s run %d with a store rendered a different report:\n%s\nwant:\n%s", id, run+1, got, want)
			}
			if _, after := store.Counts(); run == 1 && after != before {
				t.Errorf("%s after %s executed %d cells, want 0", id, ids[0], after-before)
			}
		}
		if hits, puts := store.Counts(); hits == 0 || hits != puts {
			t.Errorf("%s then %s: store served %d cells and stored %d, want the second run served every cell of the first",
				ids[0], ids[1], hits, puts)
		}
	}
}

// TestOracleCell pins the oracle kind to a direct solve: the answer an
// oracle cell stores equals oracle.Solve over the packets the matching
// run draws (memory applied as Scenario.Memory), and a second run is
// served from the store.
func TestOracleCell(t *testing.T) {
	sc := DNETScenario(Tiny)
	cfg, w := sc.Setup(2, 0, 300)
	ocfg := oracle.ConfigFrom(cfg)
	ocfg.SkipCommitted = true
	want := oracle.SolveTrace(sc.Trace, ocfg, sc.OraclePackets(cfg, w, sc.Trace))

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := []Cell{{Kind: CellOracle, Scenario: "DNET", Scale: "tiny", Seed: 2, Memory: 300}}
	for run := 1; run <= 2; run++ {
		results, err := RunCells(cells, Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if hits, puts := store.Counts(); hits != int64(run-1) || puts != 1 {
			t.Errorf("after run %d: %d served, %d executed, want %d and 1", run, hits, puts, run-1)
		}
		o := results[0].Oracle
		if o == nil || results[0].Counters != nil {
			t.Fatalf("run %d: oracle cell result %+v, want an oracle answer and no counters", run, results[0])
		}
		if o.Packets != len(want.Packets) || o.Deliverable != want.Deliverable || o.MeanDelay != want.MeanDelay ||
			o.UpperBound != float64(want.Deliverable)/float64(len(want.Packets)) || o.CommittedDelivered != 0 {
			t.Errorf("run %d: oracle cell %+v diverged from the direct solve (packets %d, deliverable %d, mean delay %v)",
				run, *o, len(want.Packets), want.Deliverable, want.MeanDelay)
		}
	}
}
