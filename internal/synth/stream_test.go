package synth

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/trace"
)

func smallDART() DARTConfig {
	cfg := DefaultDART()
	cfg.Nodes = 24
	cfg.Landmarks = 20
	cfg.Days = 10
	cfg.Communities = 4
	return cfg
}

func smallDNET() DNETConfig {
	cfg := DefaultDNET()
	cfg.Buses = 10
	cfg.Landmarks = 10
	cfg.Days = 6
	cfg.Routes = 3
	return cfg
}

// materializeStream drains a source and fails the test on any stream-order
// violation or any visit ending past the generation horizon (the clamp
// streamSource.Span relies on).
func materializeStream(t *testing.T, src trace.Source) *trace.Trace {
	t.Helper()
	horizon := src.(*streamSource).end
	tr, err := trace.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Visits {
		if v.End > horizon {
			t.Fatalf("visit %d %+v ends past the horizon %d", i, v, horizon)
		}
	}
	return tr
}

// checkSpan compares a fresh source's Span with a scan of another fresh
// source over the same stream.
func checkSpan(t *testing.T, name string, open func() trace.Source) (start, end trace.Time) {
	t.Helper()
	start, end = open().(trace.Spanner).Span()
	ws, we, err := trace.ScanSpan(open())
	if err != nil {
		t.Fatal(err)
	}
	if start != ws || end != we {
		t.Errorf("%s: Span = (%d, %d), ScanSpan = (%d, %d)", name, start, end, ws, we)
	}
	return start, end
}

// TestSpanMatchesScan pins Span's exactness against a scan of the stream
// for both models over several seeds, populations and horizons, including
// the lossy logs where the last visits of nodes go unrecorded.
func TestSpanMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11} {
		for _, mult := range []int{1, 3} {
			for _, days := range []int{1, 10} {
				for _, miss := range []float64{0, 0.12, 0.9} {
					cfg := smallDART()
					cfg.Seed, cfg.Days, cfg.MissProb = seed, days, miss
					cfg.Nodes *= mult
					cfg.Communities *= mult
					checkSpan(t, fmt.Sprintf("DART %+v", cfg), func() trace.Source { return DARTSource(cfg) })

					dn := smallDNET()
					dn.Seed, dn.Days, dn.MissProb = seed, days, miss
					dn.Buses *= mult
					checkSpan(t, fmt.Sprintf("DNET %+v", dn), func() trace.Source { return DNETSource(dn) })
				}
			}
		}
	}
	checkSpan(t, "DART default", func() trace.Source { return DARTSource(DefaultDART()) })
	checkSpan(t, "DNET default", func() trace.Source { return DNETSource(DefaultDNET()) })
}

// TestSpanEmptyStream checks a stream with no logged visit spans (0, 0),
// as ScanSpan reports it.
func TestSpanEmptyStream(t *testing.T) {
	cfg := smallDART()
	cfg.MissProb = 1
	if s, e := checkSpan(t, "DART MissProb 1", func() trace.Source { return DARTSource(cfg) }); s != 0 || e != 0 {
		t.Errorf("empty stream spans (%d, %d), want (0, 0)", s, e)
	}
	cfg.MissProb, cfg.Days = 0, 0
	if s, e := checkSpan(t, "DART 0 days", func() trace.Source { return DARTSource(cfg) }); s != 0 || e != 0 {
		t.Errorf("zero-day stream spans (%d, %d), want (0, 0)", s, e)
	}
}

// TestSpanStopsAtHorizon checks the early stop fires: once some visit ends
// at the horizon, Span replays only the first visit of the other nodes
// instead of every walker to the end.
func TestSpanStopsAtHorizon(t *testing.T) {
	for _, src := range []trace.Source{
		DARTSource(DefaultDART()),
		DNETSource(DefaultDNET()),
	} {
		ss := src.(*streamSource)
		_, end, ran := ss.span()
		if end != ss.end {
			t.Errorf("%s: span ends at %d, before the horizon %d", ss.info.Name, end, ss.end)
		}
		if n := len(ss.nodes); ran*4 > n {
			t.Errorf("%s: Span ran %d of %d walkers past their first visit", ss.info.Name, ran, n)
		}
	}
}

// TestSpanMidStream checks Span is a pure function of the configuration:
// asking before and after a partial drain gives the same span, and the
// rest of the stream is the one an unasked source emits.
func TestSpanMidStream(t *testing.T) {
	cfg := smallDART()
	sc := tuning{chunk: 100}
	ref := materializeStream(t, sc.apply(DARTSource(cfg)))

	src := sc.apply(DARTSource(cfg))
	s0, e0 := src.(trace.Spanner).Span()
	var got []trace.Visit
	for i := 0; i < 5; i++ {
		c, ok := src.Next()
		if !ok {
			t.Fatal("stream ended within five chunks")
		}
		got = append(got, c...)
	}
	if s1, e1 := src.(trace.Spanner).Span(); s1 != s0 || e1 != e0 {
		t.Errorf("Span after a partial drain = (%d, %d), before = (%d, %d)", s1, e1, s0, e0)
	}
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, c...)
	}
	if !slices.Equal(got, ref.Visits) {
		t.Fatalf("asking Span changed the stream: %d visits, want %d", len(got), len(ref.Visits))
	}
	if ws, we := ref.Span(); s0 != ws || e0 != we {
		t.Errorf("Span = (%d, %d), materialized span = (%d, %d)", s0, e0, ws, we)
	}
}

// TestDARTSourceValid checks the streamed DART family is a structurally
// valid trace sharing its topology with the materializing generator.
func TestDARTSourceValid(t *testing.T) {
	cfg := smallDART()
	tr := materializeStream(t, DARTSource(cfg))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes != cfg.Nodes || tr.NumLandmarks != cfg.Landmarks {
		t.Fatalf("dims = (%d,%d), want (%d,%d)", tr.NumNodes, tr.NumLandmarks, cfg.Nodes, cfg.Landmarks)
	}
	if len(tr.Visits) == 0 {
		t.Fatal("stream emitted no visits")
	}
	mat := DART(cfg)
	if len(tr.Positions) != len(mat.Positions) {
		t.Fatalf("%d positions, want %d", len(tr.Positions), len(mat.Positions))
	}
	for i := range tr.Positions {
		if tr.Positions[i] != mat.Positions[i] {
			t.Fatalf("position %d differs from materializing generator", i)
		}
	}
	// Every node walks: a silent per-node RNG bug would drop whole nodes.
	seen := make([]bool, tr.NumNodes)
	for _, v := range tr.Visits {
		seen[v.Node] = true
	}
	for n, ok := range seen {
		if !ok {
			t.Fatalf("node %d emitted no visits", n)
		}
	}
}

// TestDNETSourceValid is the DNET counterpart.
func TestDNETSourceValid(t *testing.T) {
	cfg := smallDNET()
	tr := materializeStream(t, DNETSource(cfg))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes != cfg.Buses || tr.NumLandmarks != cfg.Landmarks {
		t.Fatalf("dims = (%d,%d), want (%d,%d)", tr.NumNodes, tr.NumLandmarks, cfg.Buses, cfg.Landmarks)
	}
	mat := DNET(cfg)
	for i := range tr.Positions {
		if tr.Positions[i] != mat.Positions[i] {
			t.Fatalf("position %d differs from materializing generator", i)
		}
	}
}

// tuning overrides a test source's fill worker count, merge window and
// chunk size; a zero field keeps the default.
type tuning struct {
	workers int
	window  trace.Time
	chunk   int
}

// apply tunes src, a DARTSource or DNETSource not read from yet.
func (tn tuning) apply(src trace.Source) trace.Source {
	s := src.(*streamSource)
	if tn.workers > 0 {
		s.workers = tn.workers
	}
	if tn.window > 0 {
		s.window = tn.window
	}
	if tn.chunk > 0 {
		s.chunk = tn.chunk
	}
	return s
}

// TestStreamInvariance pins the streaming determinism contract: the emitted
// visit sequence is identical for every fill worker count, chunk size and
// merge window.
func TestStreamInvariance(t *testing.T) {
	cfg := smallDART()
	ref := materializeStream(t, tuning{workers: 1}.apply(DARTSource(cfg)))
	variants := []tuning{
		{workers: 2},
		{workers: 8},
		{workers: 1, chunk: 1},
		{workers: 4, chunk: 7},
		{workers: 4, window: 6 * trace.Hour},
		{workers: 4, window: 100 * trace.Day},
	}
	for _, sc := range variants {
		got := materializeStream(t, sc.apply(DARTSource(cfg)))
		if len(got.Visits) != len(ref.Visits) {
			t.Fatalf("%+v: %d visits, want %d", sc, len(got.Visits), len(ref.Visits))
		}
		for i := range got.Visits {
			if got.Visits[i] != ref.Visits[i] {
				t.Fatalf("%+v: visit %d = %+v, want %+v", sc, i, got.Visits[i], ref.Visits[i])
			}
		}
	}

	dn := smallDNET()
	dref := materializeStream(t, tuning{workers: 1}.apply(DNETSource(dn)))
	dgot := materializeStream(t, tuning{workers: 8, chunk: 3, window: 5 * trace.Hour}.apply(DNETSource(dn)))
	if len(dgot.Visits) != len(dref.Visits) {
		t.Fatalf("DNET: %d visits, want %d", len(dgot.Visits), len(dref.Visits))
	}
	for i := range dgot.Visits {
		if dgot.Visits[i] != dref.Visits[i] {
			t.Fatalf("DNET: visit %d = %+v, want %+v", i, dgot.Visits[i], dref.Visits[i])
		}
	}
}

// TestStreamScalesNodes checks the knob the scale tier turns: multiplying
// Nodes multiplies the population without disturbing validity.
func TestStreamScalesNodes(t *testing.T) {
	cfg := smallDART()
	cfg.Nodes *= 4
	cfg.Communities *= 4
	tr := materializeStream(t, DARTSource(cfg))
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes != cfg.Nodes {
		t.Fatalf("NumNodes = %d, want %d", tr.NumNodes, cfg.Nodes)
	}
}
