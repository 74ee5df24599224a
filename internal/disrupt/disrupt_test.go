package disrupt

import (
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// smallTrace is the shared test trace: 20 nodes, 8 landmarks, 10 days.
func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := synth.Small(synth.DefaultSmall())
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// stormSpec exercises every disruption family over the trace's span.
func stormSpec(tr *trace.Trace) *Spec {
	start, end := tr.Span()
	sp, err := Preset("storm", tr.NumNodes, tr.NumLandmarks, start, end)
	if err != nil {
		panic(err)
	}
	return &sp
}

// TestPerturbPreservesOrder materializes the disrupted stream (Materialize
// verifies strict VisitBefore order on every visit) and checks the result
// is a valid trace — sorted, no per-node overlaps.
func TestPerturbPreservesOrder(t *testing.T) {
	tr := smallTrace(t)
	out, err := Perturb(tr, stormSpec(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(out.Visits) == 0 || len(out.Visits) >= len(tr.Visits) {
		t.Fatalf("storm left %d of %d visits; want a proper nonempty subset's worth", len(out.Visits), len(tr.Visits))
	}
}

// TestStreamInvariance pins the tentpole contract: the perturbed stream is
// identical for every chunking of the underlying source — SliceSource at
// pathological chunk sizes, and the streaming DART generator across
// Workers/Chunk/Window settings.
func TestStreamInvariance(t *testing.T) {
	t.Run("slice-chunks", func(t *testing.T) {
		tr := smallTrace(t)
		sp := stormSpec(tr)
		ref, err := trace.Materialize(NewSource(trace.NewSliceSource(tr, 4096), sp))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 2, 3, 7, 64, 512} {
			got, err := trace.Materialize(NewSource(trace.NewSliceSource(tr, chunk), sp))
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if !reflect.DeepEqual(got.Visits, ref.Visits) {
				t.Fatalf("chunk %d: perturbed stream differs from chunk-4096 reference", chunk)
			}
		}
	})
	t.Run("dart-stream", func(t *testing.T) {
		cfg := synth.DefaultDART()
		cfg.Nodes, cfg.Landmarks, cfg.Communities, cfg.Days = 24, 12, 4, 7
		base, err := trace.Materialize(synth.DARTSource(cfg))
		if err != nil {
			t.Fatal(err)
		}
		start, end := base.Span()
		sp, err := Preset("storm", cfg.Nodes, cfg.Landmarks, start, end)
		if err != nil {
			t.Fatal(err)
		}
		// The generator's own chunks against the materialized stream in
		// chunks of other sizes.
		ref, err := trace.Materialize(NewSource(synth.DARTSource(cfg), &sp))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 17, 4096} {
			got, err := trace.Materialize(NewSource(trace.NewSliceSource(base, chunk), &sp))
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			if !reflect.DeepEqual(got.Visits, ref.Visits) {
				t.Fatalf("chunk %d: perturbed stream differs from the perturbed generator", chunk)
			}
		}
	})
}

// TestChunkBoundaryOnDisruptionEdge lands an outage edge exactly on a
// chunk boundary: with chunk size 1 every visit is its own chunk, so the
// outage-start visit begins a chunk — the output must not depend on it.
func TestChunkBoundaryOnDisruptionEdge(t *testing.T) {
	tr := &trace.Trace{
		Name: "edge", NumNodes: 3, NumLandmarks: 2,
		Visits: []trace.Visit{
			{Node: 0, Landmark: 0, Start: 100, End: 300},
			{Node: 1, Landmark: 0, Start: 200, End: 250},
			{Node: 2, Landmark: 1, Start: 200, End: 400},
			{Node: 0, Landmark: 1, Start: 350, End: 500},
			{Node: 1, Landmark: 0, Start: 400, End: 600},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Outage on landmark 0 starting exactly at visit 2's start (200) and
	// ending exactly at visit 5's start (400).
	sp := &Spec{Outages: []Outage{{Landmark: 0, Start: 200, End: 400}}}
	want := []trace.Visit{
		{Node: 0, Landmark: 0, Start: 100, End: 200}, // clipped at outage start
		{Node: 2, Landmark: 1, Start: 200, End: 400}, // other landmark untouched
		{Node: 0, Landmark: 1, Start: 350, End: 500},
		{Node: 1, Landmark: 0, Start: 400, End: 600}, // starts at recovery
	}
	for _, chunk := range []int{1, 2, 3, 5} {
		got, err := trace.Materialize(NewSource(trace.NewSliceSource(tr, chunk), sp))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !reflect.DeepEqual(got.Visits, want) {
			t.Fatalf("chunk %d:\ngot  %v\nwant %v", chunk, got.Visits, want)
		}
	}
}

// TestOutageAndChurnSemantics checks the windows are really empty: no
// visit at a down landmark, none by a churned-out node, and a visit
// spanning a window is split around it.
func TestOutageAndChurnSemantics(t *testing.T) {
	tr := smallTrace(t)
	start, end := tr.Span()
	mid := (start + end) / 2
	sp := &Spec{
		Outages: []Outage{{Landmark: 2, Start: mid, End: mid + trace.Day}},
		Churn:   []Churn{{Node: 5, Down: mid, Up: mid + trace.Day}, {Node: 6, Down: mid}}, // node 6 never returns
	}
	out, err := Perturb(tr, sp)
	if err != nil {
		t.Fatal(err)
	}
	sawSplit := false
	for _, v := range out.Visits {
		if v.Landmark == 2 && v.Start < mid+trace.Day && v.End > mid {
			t.Fatalf("visit %v overlaps landmark 2's outage", v)
		}
		if v.Node == 5 && v.Start < mid+trace.Day && v.End > mid {
			t.Fatalf("visit %v overlaps node 5's churn window", v)
		}
		if v.Node == 6 && v.End > mid {
			t.Fatalf("visit %v survives node 6's permanent churn", v)
		}
		if v.Landmark == 2 && v.Start >= mid+trace.Day {
			sawSplit = true
		}
	}
	if !sawSplit {
		t.Fatal("no landmark-2 visit after recovery; outage should not be permanent")
	}
	if sp.LandmarkDown(2, mid) != true || sp.LandmarkDown(2, mid+trace.Day) != false {
		t.Fatal("LandmarkDown window is not half-open [Start, End)")
	}
	if !sp.NodeAbsent(6, end) {
		t.Fatal("NodeAbsent: permanent churn (Up <= Down) should never end")
	}
}

// TestDriftAndLinkSemantics checks drift remaps only the cohort from the
// onset, and a severed link removes exactly the From->To transits.
func TestDriftAndLinkSemantics(t *testing.T) {
	tr := smallTrace(t)
	start, end := tr.Span()
	mid := (start + end) / 2
	shift := 3
	drift := &Spec{Drifts: []Drift{{At: mid, Mod: 2, Rem: 1, Shift: shift}}}
	out, err := Perturb(tr, drift)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Visits) != len(tr.Visits) {
		t.Fatalf("drift changed the visit count: %d -> %d", len(tr.Visits), len(out.Visits))
	}
	l := tr.NumLandmarks
	for i, v := range tr.Visits {
		want := v
		if v.Start >= mid && v.Node%2 == 1 {
			want.Landmark = (v.Landmark + shift) % l
		}
		if out.Visits[i] != want {
			t.Fatalf("visit %d: got %v want %v", i, out.Visits[i], want)
		}
	}

	sever := &Spec{Links: []LinkFault{{From: 0, To: 1, Start: start, End: end + 1, DropProb: 1}}}
	out, err = Perturb(tr, sever)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the expected gate over the original stream: last confirmed
	// landmark per node, visits at 1 coming from 0 vanish.
	prev := make(map[int]int)
	var want []trace.Visit
	for _, v := range tr.Visits {
		from, seen := prev[v.Node]
		if seen && from == 0 && v.Landmark == 1 {
			continue
		}
		prev[v.Node] = v.Landmark
		want = append(want, v)
	}
	if !reflect.DeepEqual(out.Visits, want) {
		t.Fatalf("severed-link stream mismatch: got %d visits, want %d", len(out.Visits), len(want))
	}
	if len(want) == len(tr.Visits) {
		t.Fatal("sever test vacuous: no 0->1 transit in the base trace")
	}
}

// TestEmptySpecPassThrough: an empty spec must not alter the stream, and
// Wrap must return the factory unchanged.
func TestEmptySpecPassThrough(t *testing.T) {
	tr := smallTrace(t)
	out, err := Perturb(tr, &Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if out != tr {
		t.Fatal("Perturb with an empty spec should return the trace unchanged")
	}
	open := func() trace.Source { return trace.NewSliceSource(tr, 0) }
	if got := Wrap(open, nil); reflect.ValueOf(got).Pointer() != reflect.ValueOf(open).Pointer() {
		t.Fatal("Wrap with a nil spec should return open unchanged")
	}
}

// TestNoSpanner pins the span contract: the wrapper must not implement
// trace.Spanner, so stream consumers scan the perturbed stream and get
// the same span a materialized perturbed trace reports.
func TestNoSpanner(t *testing.T) {
	tr := smallTrace(t)
	sp := stormSpec(tr)
	var src trace.Source = NewSource(trace.NewSliceSource(tr, 0), sp)
	if _, ok := src.(trace.Spanner); ok {
		t.Fatal("disrupt.Source must not implement Spanner: its span differs from the underlying trace's")
	}
	s0, e0, err := trace.ScanSpan(NewSource(trace.NewSliceSource(tr, 0), sp))
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Perturb(tr, sp)
	if err != nil {
		t.Fatal(err)
	}
	s1, e1 := mat.Span()
	if s0 != s1 || e0 != e1 {
		t.Fatalf("ScanSpan (%d,%d) != materialized span (%d,%d)", s0, e0, s1, e1)
	}
}

// TestPresetsAndEvents: every preset compiles on small dimensions, and
// the storm's telemetry timeline is sorted and covers all five families.
func TestPresetsAndEvents(t *testing.T) {
	for _, name := range PresetNames {
		sp, err := Preset(name, 20, 8, 0, 10*trace.Day)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sp.Empty() {
			t.Fatalf("%s: preset is empty", name)
		}
	}
	if _, err := Preset("nope", 20, 8, 0, trace.Day); err == nil {
		t.Fatal("unknown preset should fail")
	}
	sp, _ := Preset("storm", 20, 8, 0, 10*trace.Day)
	evs := sp.Events()
	kinds := map[string]bool{}
	for i, ev := range evs {
		kinds[ev.Kind] = true
		if i > 0 && ev.T < evs[i-1].T {
			t.Fatal("Events() not sorted by time")
		}
	}
	for _, k := range []string{"outage-start", "outage-end", "link-down", "churn-out", "churn-in", "drift", "crowd-start"} {
		if !kinds[k] {
			t.Fatalf("storm timeline missing %q (have %v)", k, kinds)
		}
	}
	if len(sp.Actions()) == 0 || len(sp.Surges()) == 0 {
		t.Fatal("storm should compile engine actions and workload surges")
	}
	a := sp.Actions()
	for i := 1; i < len(a); i++ {
		if a[i].T < a[i-1].T {
			t.Fatal("Actions() not sorted by T")
		}
	}
}
