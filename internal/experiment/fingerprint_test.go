package experiment

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// orderedA and orderedB marshal to the same JSON fields declared in
// opposite Go struct orders — the canonical encoding must erase the
// difference.
type orderedA struct {
	Alpha int     `json:"alpha"`
	Beta  string  `json:"beta"`
	Gamma float64 `json:"gamma"`
}

type orderedB struct {
	Gamma float64 `json:"gamma"`
	Beta  string  `json:"beta"`
	Alpha int     `json:"alpha"`
}

func TestCanonicalJSONFieldOrder(t *testing.T) {
	a, err := CanonicalJSON(orderedA{Alpha: 7, Beta: "x", Gamma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(orderedB{Alpha: 7, Beta: "x", Gamma: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("field order leaked into canonical JSON:\nA: %s\nB: %s", a, b)
	}
	fa, _ := FingerprintJSON(orderedA{Alpha: 7, Beta: "x", Gamma: 2.5})
	fb, _ := FingerprintJSON(orderedB{Alpha: 7, Beta: "x", Gamma: 2.5})
	if fa != fb {
		t.Errorf("fingerprints diverged across field order: %s vs %s", fa, fb)
	}
}

func TestCanonicalJSONNumbers(t *testing.T) {
	// int64 beyond float64's integer range and a non-terminating binary
	// fraction: both must survive canonicalization byte-exact.
	type nums struct {
		Big  int64   `json:"big"`
		Frac float64 `json:"frac"`
	}
	in := nums{Big: (1 << 60) + 1, Frac: 0.1}
	blob, err := CanonicalJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "1152921504606846977") {
		t.Errorf("int64 literal mangled: %s", blob)
	}
	if !strings.Contains(string(blob), "0.1") {
		t.Errorf("float literal mangled: %s", blob)
	}
}

func TestCellFingerprintNormalization(t *testing.T) {
	base := Cell{Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Kind: CellRun}
	fp, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a hex SHA-256", fp)
	}
	// Zero seed and empty kind normalize to the same cell.
	norm := Cell{Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW"}
	if nfp, _ := norm.Fingerprint(); nfp != fp {
		t.Errorf("normalized cell fingerprint diverged: %s vs %s", nfp, fp)
	}
	// A DTN-FLOW configuration equal to the default is the plain cell.
	def := core.DefaultConfig()
	withDefault := Cell{Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Flow: &def}
	if dfp, _ := withDefault.Fingerprint(); dfp != fp {
		t.Errorf("default flow configuration fingerprinted apart from no flow: %s vs %s", dfp, fp)
	}
	// A cell without memory, flow or loops encodes none of those keys, so
	// its fingerprint is the one it had before they existed.
	blob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"memory", "flow", "loops"} {
		if strings.Contains(string(blob), `"`+key+`"`) {
			t.Errorf("cell without %s encodes a %s key: %s", key, key, blob)
		}
	}
	balanced := core.DefaultConfig()
	balanced.LoadBalance = true
	// Every semantic field must move the key.
	for name, c := range map[string]Cell{
		"seed":     {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 2},
		"method":   {Scenario: "DART", Scale: "tiny", Method: "PROPHET", Seed: 1},
		"scenario": {Scenario: "DNET", Scale: "tiny", Method: "DTN-FLOW", Seed: 1},
		"scale":    {Scenario: "DART", Scale: "quick", Method: "DTN-FLOW", Seed: 1},
		"rate":     {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Rate: 123},
		"memory":   {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Memory: 600},
		"flow":     {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Flow: &balanced},
		"loops":    {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Loops: 2},
		"oracle":   {Kind: CellOracle, Scenario: "DART", Scale: "tiny", Seed: 1},
	} {
		ofp, err := c.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ofp == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestCellFingerprintDefaultAxes checks a rate or memory equal to the
// scenario's default at the cell's scale, and a negative rate, fingerprint
// as the default cell: Fig. 11's 2000 kB cell and Fig. 13's rate-500 cell
// at Full are one run, as are a Tiny cell at rate 200 and the default
// one, while any other value moves the key.
func TestCellFingerprintDefaultAxes(t *testing.T) {
	fp := func(c Cell) string {
		t.Helper()
		f, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	full := Cell{Kind: CellRun, Scenario: "DART", Scale: "full", Method: "PROPHET", Seed: 1}
	fig11, fig13 := full, full
	fig11.Memory, fig13.Rate = 2000, 500
	if fp(fig11) != fp(full) || fp(fig13) != fp(full) {
		t.Error("Full DART's default memory or rate spelled out fingerprinted apart from the default cell")
	}
	tiny := Cell{Scenario: "DART", Scale: "tiny", Method: "PROPHET"}
	tinyDef, tinyFull, tinyNeg := tiny, tiny, tiny
	tinyDef.Rate, tinyFull.Rate, tinyNeg.Rate = 200, 500, -1
	if fp(tinyDef) != fp(tiny) || fp(tinyFull) == fp(tiny) {
		t.Error("Tiny DART's rate normalized against another scale's default")
	}
	if fp(tinyNeg) != fp(tiny) {
		t.Error("a negative rate, which runs the default, fingerprinted apart from the default cell")
	}
	campus := Cell{Scenario: "CAMPUS", Scale: "full", Method: "DTN-FLOW"}
	campusDef, campus2000 := campus, campus
	campusDef.Memory, campus2000.Memory = 50, 2000
	if fp(campusDef) != fp(campus) || fp(campus2000) == fp(campus) {
		t.Error("CAMPUS memory not normalized against its 50 kB default")
	}
}

// TestFingerprintGeneratesNoTrace checks validating and fingerprinting a
// cell reads the catalogue's settings only: a Full DART cell leaves no
// DART scenario, at Full or any other scale, in the cache.
func TestFingerprintGeneratesNoTrace(t *testing.T) {
	for _, scale := range []Scale{Full, Quick, Tiny} {
		key := scenarioKey{"DART", scale}
		if v, ok := scenarioCache.LoadAndDelete(key); ok {
			defer scenarioCache.Store(key, v)
		}
	}
	for _, c := range []Cell{
		{Scenario: "DART", Scale: "full", Method: "PROPHET", Memory: 2000},
		{Kind: CellOracle, Scenario: "DART", Scale: "full", Rate: 500},
	} {
		if _, err := c.Fingerprint(); err != nil {
			t.Fatal(err)
		}
		for _, scale := range []Scale{Full, Quick, Tiny} {
			if _, ok := scenarioCache.Load(scenarioKey{"DART", scale}); ok {
				t.Fatalf("fingerprinting %s built the %s DART scenario", c, scale)
			}
		}
	}
}

func TestCellFingerprintRejectsInvalid(t *testing.T) {
	flow := func(mod func(*core.Config)) *core.Config {
		c := core.DefaultConfig()
		if mod != nil {
			mod(&c)
		}
		return &c
	}
	for name, c := range map[string]Cell{
		"method":         {Scenario: "DART", Scale: "tiny", Method: "nope"},
		"scale":          {Scenario: "DART", Scale: "huge", Method: "DTN-FLOW"},
		"scenario":       {Scenario: "MARS", Scale: "tiny", Method: "DTN-FLOW"},
		"kind":           {Kind: "weird", Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW"},
		"kind-scale":     {Kind: "scale", Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1},
		"memory":         {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Memory: -1},
		"rate-nan":       {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Rate: math.NaN()},
		"flow-method":    {Scenario: "DART", Scale: "tiny", Method: "PROPHET", Flow: flow(nil)},
		"flow-oracle":    {Kind: CellOracle, Scenario: "DART", Scale: "tiny", Flow: flow(nil)},
		"loops-method":   {Scenario: "DART", Scale: "tiny", Method: "PER", Loops: 2},
		"loops-oracle":   {Kind: CellOracle, Scenario: "DART", Scale: "tiny", Loops: 2},
		"loops-negative": {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Loops: -1},
		"node-routing":   {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Flow: flow(func(c *core.Config) { c.NodeRouting = true })},
		"order":          {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Flow: flow(func(c *core.Config) { c.Order = 0 })},
		"rho-zero":       {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Flow: flow(func(c *core.Config) { c.Rho = 0 })},
		"rho-above-one":  {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Flow: flow(func(c *core.Config) { c.Rho = 1.5 })},
		"dead-end-gamma": {Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Flow: flow(func(c *core.Config) { c.DeadEnd, c.Gamma = true, 0 })},
		"oracle-method":  {Kind: CellOracle, Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW"},
		"oracle-scale":   {Kind: CellOracle, Scenario: "DART", Scale: "huge"},
	} {
		if _, err := c.Fingerprint(); err == nil {
			t.Errorf("%s: invalid cell fingerprinted without error", name)
		}
	}
	// A scale cell, which a store or a hand-written cell list may still
	// name, is refused with a pointer to the scale tier's own command.
	err := Cell{Kind: "scale", Scenario: "DART", Method: "DTN-FLOW"}.Validate()
	if err == nil || !strings.Contains(err.Error(), "dtnflow-scale") {
		t.Errorf("scale cell: error %v, want one naming dtnflow-scale", err)
	}
}

func TestSummaryFingerprint(t *testing.T) {
	a := metrics.Summary{Method: "X", Generated: 10, Delivered: 9, SuccessRate: 0.9}
	b := a
	if SummaryFingerprint(a) != SummaryFingerprint(b) {
		t.Error("identical summaries fingerprinted differently")
	}
	b.AvgDelay = 1e-9
	if SummaryFingerprint(a) == SummaryFingerprint(b) {
		t.Error("a changed field did not change the fingerprint")
	}
	if SummaryFingerprint(a, b) == SummaryFingerprint(b, a) {
		t.Error("fingerprint ignored result order")
	}
}

// TestCellFingerprintPins pins literal store keys: the golden corpus
// cells, an oracle cell, a Fig. 11 memory cell and Table VII's W-3 cell
// (a Flow with injected loops). A key that moves orphans every stored
// result filed under it, so a change to Cell's fields must leave these
// equal; only a deliberate sim.EngineVersion or oracle.Version bump may
// move them.
func TestCellFingerprintPins(t *testing.T) {
	loopFix := core.DefaultConfig()
	loopFix.LoopFix = true
	golden := []string{
		"a6b1b4ebdc9137754a4875f54302bff8067a503ded055e43a81c297d536f0729", // DART DTN-FLOW
		"08c0b8fa1f842e34bdadeb06e0e5cb723eaa965798c698306ff5f76d63f5ecb7", // DART PER
		"da76e9e526d3ca10fccbf8cf15914c05b0c230175131fcc62b47b9bd5be461c7", // DART SimBet
		"2c66ba5f3329fdfc16fb8adb8dbb7842d0d428644c67f33451f45083a83c528a", // DART PROPHET
		"3133305a68ae56f0784504d76663dda5baab0b1477707610d425151d70d42b72", // DART GeoComm
		"637bdddb20b4d76c855610f4c209216299078c79e55e2622a17e814aa49cf69c", // DART PGR
		"dcbbe429669067f3c57daa0dd4b232a5757b0ac1a861522f8bd0e861a8c671c0", // DNET DTN-FLOW
		"e80e72660719a32973d4f832c4e81de4f895b119c4fcadb9f1ac80e005755a3e", // DNET PER
		"32599f2e669f34d4eaa90eca3ecf0ae77b3137a561a5915c21c80adbb95ec438", // DNET SimBet
		"3bbf2c9ef20599376b4fe5ef9512cb3e41790577bb7637c660eef64076ea6ba4", // DNET PROPHET
		"ae10409d6846fdb906759acf1bdbe57aab8ec5f3e93728eb7199a95a38c31e6c", // DNET GeoComm
		"5c007edecaab2f7d6d38b0927f236179af510d0e8f5f6a466acda5bf6c05e641", // DNET PGR
	}
	cells := GoldenCells()
	if len(cells) != len(golden) {
		t.Fatalf("%d golden cells, %d pinned keys", len(cells), len(golden))
	}
	pins := make(map[string]Cell, len(cells)+3)
	for i, c := range cells {
		pins[golden[i]] = c
	}
	pins["ee30cfc545cc37eb1cb186583c104034b96e345acac1d93537afec2aac0922a5"] =
		Cell{Kind: CellOracle, Scenario: "DART", Scale: "tiny", Seed: 1}
	pins["15b15073e51e3b27f9b0fd56055d859d26997a96e88812b6a974ccc23182b9f4"] =
		Cell{Kind: CellRun, Scenario: "DART", Scale: "tiny", Method: "PROPHET", Seed: 2, Memory: 600}
	pins["1e870368ad1887bcf9b0eeca795b883f75a3ca2fba324d596dcfdd07b666b885"] =
		Cell{Kind: CellRun, Scenario: "DART", Scale: "tiny", Method: "DTN-FLOW", Seed: 1, Flow: &loopFix, Loops: 3}
	for want, c := range pins {
		got, err := c.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got != want {
			t.Errorf("%s: fingerprint %s, pinned %s", c, got, want)
		}
	}
}
