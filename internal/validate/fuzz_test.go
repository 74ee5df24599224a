package validate

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// uniformTrace builds a structureless mobility trace: every node visits a
// uniformly random landmark in sequence. It deliberately violates the
// paper's observations (no routine, no skew) so the tests can assert the
// O-checks discriminate.
func uniformTrace(nodes, landmarks, days int) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := &trace.Trace{Name: "UNIFORM", NumNodes: nodes, NumLandmarks: landmarks}
	end := trace.Time(days) * trace.Day
	for n := 0; n < nodes; n++ {
		t := trace.Time(rng.Intn(int(trace.Hour)))
		for t < end {
			lm := rng.Intn(landmarks)
			dwell := 20*trace.Minute + trace.Time(rng.Intn(int(40*trace.Minute)))
			vEnd := t + dwell
			if vEnd > end {
				vEnd = end
			}
			tr.Visits = append(tr.Visits, trace.Visit{Node: n, Landmark: lm, Start: t, End: vEnd})
			t = vEnd + 5*trace.Minute + trace.Time(rng.Intn(int(15*trace.Minute)))
		}
	}
	tr.SortVisits()
	return tr
}

// TestSpecNormalizeClamps pins that arbitrary values (the native fuzz
// target feeds raw ints) always land in runnable ranges.
func TestSpecNormalizeClamps(t *testing.T) {
	s := ScenarioSpec{
		Seed: -9, Nodes: -100, Landmarks: 9999, Days: 0, CycleLen: 77,
		TTLHours: -5, NodeMemKB: 1 << 30, StationMemKB: -3,
		RatePerDay: 100000, LinkRate: -2, FollowPct: 999, MissPct: -40,
	}.Normalize()
	if s.Seed < 0 || s.Nodes != 2 || s.Landmarks != 10 || s.Days != 2 ||
		s.CycleLen != 5 || s.TTLHours != 2 || s.NodeMemKB != 64 ||
		s.StationMemKB != 0 || s.RatePerDay != 200 || s.LinkRate != 0.05 ||
		s.FollowPct != 95 || s.MissPct != 0 {
		t.Fatalf("normalize out of range: %+v", s)
	}
	if tr := s.Trace(); tr.Validate() != nil {
		t.Fatalf("normalized spec produced invalid trace: %v", tr.Validate())
	}
}

// TestFuzzCampaignSmoke runs a short property campaign; the simulator
// must hold every property on every random spec.
func TestFuzzCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~a dozen simulations per spec")
	}
	fails := Fuzz(FuzzOptions{Specs: 6, Seed: 20260805, Log: t.Logf})
	for _, f := range fails {
		t.Errorf("%v", f)
	}
}

// TestShrinkMinimizes pins the shrinker on a synthetic failing property
// (a predicate unrelated to the simulator): the shrunk spec must be at the
// predicate's boundary, not wherever the random spec started.
func TestShrinkMinimizes(t *testing.T) {
	// Stand-in failing property: "at least 12 nodes and 3 days".
	orig := properties
	defer func() { properties = orig }()
	properties = []property{{
		name: "synthetic",
		fn: func(s ScenarioSpec) string {
			if s.Nodes >= 12 && s.Days >= 3 {
				return "fails"
			}
			return ""
		},
	}}
	big := ScenarioSpec{Seed: 1, Nodes: 40, Landmarks: 8, Days: 8, CycleLen: 4,
		TTLHours: 48, NodeMemKB: 32, RatePerDay: 100, LinkRate: 1, FollowPct: 85}
	f := shrink(big.Normalize(), "synthetic", "fails")
	if f.Spec.Nodes >= 24 || f.Spec.Days >= 6 {
		t.Fatalf("shrinker left a large spec: %v", f.Spec)
	}
	if p, _ := CheckSpec(f.Spec); p != "synthetic" {
		t.Fatalf("shrunk spec no longer fails: %v", f.Spec)
	}
	if f.Shrinks == 0 {
		t.Fatal("no shrink steps accepted")
	}
}
