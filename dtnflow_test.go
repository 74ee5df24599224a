package dtnflow

import (
	"strings"
	"testing"
)

func TestSimulateSmall(t *testing.T) {
	tr := SmallTrace()
	s := Simulate(tr, NewDTNFLOW(), SimOptions{
		RatePerDay: 100,
		TTL:        2 * Day,
		Unit:       12 * Hour,
	})
	if s.Generated == 0 {
		t.Fatal("nothing generated")
	}
	if s.SuccessRate < 0.5 {
		t.Errorf("success = %.2f", s.SuccessRate)
	}
}

func TestAllRoutersRun(t *testing.T) {
	tr := SmallTrace()
	for _, r := range []Router{
		NewDTNFLOW(), NewDTNFLOWFull(), NewPROPHET(), NewSimBet(),
		NewPGR(), NewGeoComm(), NewPER(),
	} {
		s := Simulate(tr, r, SimOptions{RatePerDay: 50, TTL: 2 * Day, Unit: 12 * Hour})
		if s.Generated == 0 || s.Delivered == 0 {
			t.Errorf("%s: generated=%d delivered=%d", s.Method, s.Generated, s.Delivered)
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	out, err := RunExperiment("table1", ExperimentOptions{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "DART") || !strings.Contains(out, "DNET") {
		t.Errorf("unexpected report:\n%s", out)
	}
	if _, err := RunExperiment("bogus", ExperimentOptions{}); err == nil {
		t.Error("bogus experiment did not error")
	}
}

// TestRunExperimentRejectsUnknownScale checks a misspelt scale is an
// error: as a raw Scale it would build the Full traces while the sweeps
// halve their x-values, a mix of two regimes.
func TestRunExperimentRejectsUnknownScale(t *testing.T) {
	for _, scale := range []string{"Quick", "TINY", "medium"} {
		if _, err := RunExperiment("table1", ExperimentOptions{Scale: scale}); err == nil {
			t.Errorf("scale %q accepted", scale)
		}
	}
}

func TestExperimentIDs(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Errorf("only %d experiments registered", len(ids))
	}
}

func TestTraceGenerators(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"DART":   DARTTrace(),
		"DNET":   DNETTrace(),
		"CAMPUS": CampusTrace(),
		"SMALL":  SmallTrace(),
	} {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
