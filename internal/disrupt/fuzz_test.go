package disrupt

import (
	"encoding/json"
	"testing"

	"repro/internal/trace"
)

// fuzzTrace is a tiny valid trace for FuzzSpecJSON: 3 nodes over 4
// landmarks, a handful of visits per node.
func fuzzTrace() *trace.Trace {
	tr := &trace.Trace{Name: "FUZZ", NumNodes: 3, NumLandmarks: 4}
	for n := 0; n < tr.NumNodes; n++ {
		t := trace.Time(n * 7)
		for i := 0; i < 6; i++ {
			tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: (n + i) % 4, Start: t, End: t + 50})
			t += 80
		}
	}
	tr.SortVisits()
	return tr
}

// FuzzSpecJSON asserts a disruption spec decoded from arbitrary JSON never
// panics the layer: wrapping a small source and materializing it either
// fails with an error or yields a trace, and compiling the engine actions
// and the telemetry timeline always finishes. A materialized trace must
// also be valid. testdata/fuzz/FuzzSpecJSON pins the inverted-outage
// crasher (End < Start once clipped visits into overlapping pieces).
func FuzzSpecJSON(f *testing.F) {
	tr := fuzzTrace()
	start, end := tr.Span()
	for _, name := range PresetNames {
		sp, err := Preset(name, tr.NumNodes, tr.NumLandmarks, start, end)
		if err != nil {
			f.Fatal(err)
		}
		raw, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"outages":[{"landmark":1,"start":300,"end":100}]}`))
	f.Add([]byte(`{"churn":[{"node":9,"down":-5,"up":-9}],"drifts":[{"at":0,"mod":-1,"rem":0,"shift":-7}]}`))
	f.Add([]byte(`{"links":[{"from":-1,"to":2,"start":0,"end":1000,"drop_prob":0.5}],"crowds":[{"start":0,"end":10,"rate":1e300}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if err := json.Unmarshal(data, &sp); err != nil {
			return
		}
		open := Wrap(func() trace.Source { return trace.NewSliceSource(tr, 2) }, &sp)
		if out, err := trace.Materialize(open()); err == nil {
			if err := out.Validate(); err != nil {
				t.Fatalf("materialized perturbed trace is invalid: %v\nspec: %s", err, data)
			}
		}
		sp.Actions()
		sp.Events()
	})
}
