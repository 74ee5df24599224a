// Package disrupt perturbs scenarios: landmark outages, transit-link
// degradation and severance, node churn, mobility drift, and flash-crowd
// traffic spikes, composable in one declarative Spec. A Spec applies on
// three independent axes that together cover every disruption kind:
//
//   - the mobility trace, via an order-preserving Source wrapper
//     (source.go) that clips visits out of outage and churn windows,
//     remaps drifted community memberships, and drops visits over
//     severed transit links;
//   - the engine, via compiled sim.DisruptAction schedules (churned-out
//     carriers flush their buffers, so a node that left the network
//     carries no packets);
//   - the workload, via compiled sim.Surge entries (flash crowds are
//     extra traffic, not mobility, so they live in Workload.Schedule
//     where both engine constructors consume them identically).
//
// Every compilation is deterministic, so a disrupted run over the
// materialized perturbed trace and over the wrapped stream remain
// bit-identical at any epoch length — the same contract undisrupted runs
// have.
package disrupt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Outage takes landmark Landmark's station offline for [Start, End): no
// node connects there (visits are clipped out of the window), so nothing
// is uploaded, downloaded, or relayed at the landmark. The station's
// buffered packets survive the outage and resume flowing on recovery —
// an outage severs the radio, not the storage.
type Outage struct {
	Landmark int        `json:"landmark"`
	Start    trace.Time `json:"start"`
	End      trace.Time `json:"end"`
}

// LinkFault degrades the transit link From -> To during [Start, End):
// a node whose last confirmed landmark is From fails to register at To
// with probability DropProb (>= 1 severs the link). The failed visit
// vanishes from the perturbed trace; the node's confirmed position stays
// From, so consecutive transits keep failing until the window closes or
// the node travels elsewhere.
type LinkFault struct {
	From     int        `json:"from"`
	To       int        `json:"to"`
	Start    trace.Time `json:"start"`
	End      trace.Time `json:"end"`
	DropProb float64    `json:"drop_prob"`
}

// Churn removes node Node from the network for [Down, Up): its visits in
// the window are clipped away and, at Down, every packet it carries is
// dropped (metrics.DropChurn) — a carrier that left takes its payload
// with it. Up <= Down means the node never returns.
type Churn struct {
	Node int        `json:"node"`
	Down trace.Time `json:"down"`
	Up   trace.Time `json:"up"`
}

// Drift shifts community membership from time At onward: nodes with
// ID % Mod == Rem have every later visit's landmark rotated by Shift
// (mod the landmark count). This models the slow mobility-pattern drift
// of the related work — the cohort starts frequenting different
// landmarks, invalidating learned transit tables.
type Drift struct {
	At    trace.Time `json:"at"`
	Mod   int        `json:"mod"`
	Rem   int        `json:"rem"`
	Shift int        `json:"shift"`
}

// FlashCrowd concentrates extra traffic on a few landmarks: during
// [Start, End), Rate additional packets per day are generated with
// sources drawn uniformly from Landmarks (destinations stay uniform).
type FlashCrowd struct {
	Start     trace.Time `json:"start"`
	End       trace.Time `json:"end"`
	Landmarks []int      `json:"landmarks"`
	Rate      float64    `json:"rate"`
}

// Spec is a composable disruption scenario: any combination of the five
// perturbation families. The zero value disrupts nothing.
type Spec struct {
	// Seed drives the deterministic link-fault drop draws (never the
	// simulation RNG); 0 is a valid seed.
	Seed    int64        `json:"seed,omitempty"`
	Outages []Outage     `json:"outages,omitempty"`
	Links   []LinkFault  `json:"links,omitempty"`
	Churn   []Churn      `json:"churn,omitempty"`
	Drifts  []Drift      `json:"drifts,omitempty"`
	Crowds  []FlashCrowd `json:"crowds,omitempty"`
}

// Empty reports whether the spec perturbs anything at all.
func (sp *Spec) Empty() bool {
	return sp == nil ||
		len(sp.Outages) == 0 && len(sp.Links) == 0 && len(sp.Churn) == 0 &&
			len(sp.Drifts) == 0 && len(sp.Crowds) == 0
}

// LandmarkDown reports whether landmark lm is inside an outage window at
// time t. Windows are half-open [Start, End).
func (sp *Spec) LandmarkDown(lm int, t trace.Time) bool {
	if sp == nil {
		return false
	}
	for _, o := range sp.Outages {
		if o.Landmark == lm && t >= o.Start && t < o.End {
			return true
		}
	}
	return false
}

// NodeAbsent reports whether node is churned out of the network at time
// t. Windows are half-open [Down, Up); Up <= Down means forever.
func (sp *Spec) NodeAbsent(node int, t trace.Time) bool {
	if sp == nil {
		return false
	}
	for _, c := range sp.Churn {
		if c.Node != node || t < c.Down {
			continue
		}
		if c.Up <= c.Down || t < c.Up {
			return true
		}
	}
	return false
}

// Actions compiles the engine-side effect schedule: one buffer flush per
// churn departure, sorted by (T, Node) as sim.Config.Disrupt requires.
func (sp *Spec) Actions() []sim.DisruptAction {
	if sp == nil || len(sp.Churn) == 0 {
		return nil
	}
	out := make([]sim.DisruptAction, 0, len(sp.Churn))
	for _, c := range sp.Churn {
		out = append(out, sim.DisruptAction{T: c.Down, Node: c.Node})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].T != out[j].T {
			return out[i].T < out[j].T
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Surges compiles the workload-side effect: one sim.Surge per flash
// crowd, in spec order (Workload.Schedule consumes them sequentially
// from its seeded RNG, so the order is part of the scenario identity).
func (sp *Spec) Surges() []sim.Surge {
	if sp == nil || len(sp.Crowds) == 0 {
		return nil
	}
	out := make([]sim.Surge, 0, len(sp.Crowds))
	for _, c := range sp.Crowds {
		out = append(out, sim.Surge{Start: c.Start, End: c.End, Landmarks: c.Landmarks, Rate: c.Rate})
	}
	return out
}

// Apply wires the spec's engine and workload effects into a run
// configuration in place. The trace side is separate — wrap the source
// with Wrap (or perturb a materialized trace with Perturb).
func (sp *Spec) Apply(cfg *sim.Config, w *sim.Workload) {
	if sp.Empty() {
		return
	}
	if cfg != nil {
		cfg.Disrupt = sp.Actions()
	}
	if w != nil {
		w.Surges = append(w.Surges, sp.Surges()...)
	}
}

// Events returns the spec's disruption timeline in telemetry form,
// sorted by time: the meta-header payload replay analyses segment a
// recording around (see telemetry.Log.Resilience).
func (sp *Spec) Events() []telemetry.Disruption {
	if sp.Empty() {
		return nil
	}
	var evs []telemetry.Disruption
	for _, o := range sp.Outages {
		evs = append(evs,
			telemetry.Disruption{T: o.Start, Kind: "outage-start", A: o.Landmark},
			telemetry.Disruption{T: o.End, Kind: "outage-end", A: o.Landmark})
	}
	for _, l := range sp.Links {
		evs = append(evs,
			telemetry.Disruption{T: l.Start, Kind: "link-down", A: l.From, B: l.To},
			telemetry.Disruption{T: l.End, Kind: "link-up", A: l.From, B: l.To})
	}
	for _, c := range sp.Churn {
		evs = append(evs, telemetry.Disruption{T: c.Down, Kind: "churn-out", A: c.Node})
		if c.Up > c.Down {
			evs = append(evs, telemetry.Disruption{T: c.Up, Kind: "churn-in", A: c.Node})
		}
	}
	for _, d := range sp.Drifts {
		evs = append(evs, telemetry.Disruption{T: d.At, Kind: "drift", A: d.Shift, B: d.Mod})
	}
	for _, c := range sp.Crowds {
		lm := -1
		if len(c.Landmarks) > 0 {
			lm = c.Landmarks[0]
		}
		evs = append(evs,
			telemetry.Disruption{T: c.Start, Kind: "crowd-start", A: lm, B: int(c.Rate)},
			telemetry.Disruption{T: c.End, Kind: "crowd-end", A: lm})
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return evs
}

// PresetNames lists the built-in disruption scenarios Preset accepts.
var PresetNames = []string{"outage", "link-sever", "link-degrade", "churn", "drift", "flash-crowd", "storm"}

// Preset builds a named disruption spec scaled to a scenario's
// dimensions and time span. Window placement is fractional in the span,
// so the same preset name yields a comparable disruption on any trace.
func Preset(name string, nodes, landmarks int, start, end trace.Time) (Spec, error) {
	if nodes < 1 || landmarks < 1 || end <= start {
		return Spec{}, fmt.Errorf("disrupt: preset %q needs positive dimensions and a positive span", name)
	}
	q := (end - start) / 8 // one span-eighth: the preset placement unit
	at := func(eighths trace.Time) trace.Time { return start + eighths*q }
	outage := func() []Outage {
		out := []Outage{{Landmark: 0, Start: at(3), End: at(4)}}
		if landmarks > 1 {
			out = append(out, Outage{Landmark: 1, Start: at(5), End: at(5) + q/2})
		}
		return out
	}
	link := func(p float64) []LinkFault {
		if landmarks < 2 {
			return nil
		}
		return []LinkFault{{From: 0, To: 1, Start: at(2), End: at(6), DropProb: p}}
	}
	churn := func() []Churn {
		stride := nodes / 8
		if stride < 1 {
			stride = 1
		}
		var out []Churn
		for i := 0; i < 8; i++ {
			n := i * stride
			if n >= nodes {
				break
			}
			down := at(3) + trace.Time(i)*q/8
			out = append(out, Churn{Node: n, Down: down, Up: down + q})
		}
		return out
	}
	drift := func() []Drift {
		shift := landmarks / 3
		if shift < 1 {
			shift = 1
		}
		return []Drift{{At: at(4), Mod: 2, Rem: 0, Shift: shift}}
	}
	crowd := func() []FlashCrowd {
		lms := []int{0}
		if landmarks > 2 {
			lms = append(lms, landmarks/2)
		}
		return []FlashCrowd{{Start: at(5), End: at(6), Landmarks: lms, Rate: 1500}}
	}
	sp := Spec{Seed: 1}
	switch name {
	case "outage":
		sp.Outages = outage()
	case "link-sever":
		sp.Links = link(1)
	case "link-degrade":
		sp.Links = link(0.5)
	case "churn":
		sp.Churn = churn()
	case "drift":
		sp.Drifts = drift()
	case "flash-crowd":
		sp.Crowds = crowd()
	case "storm":
		sp.Outages = outage()
		sp.Links = link(1)
		sp.Churn = churn()
		sp.Drifts = drift()
		sp.Crowds = crowd()
	default:
		return Spec{}, fmt.Errorf("disrupt: unknown preset %q (want one of %s, or a .json spec file)",
			name, strings.Join(PresetNames, ", "))
	}
	return sp, nil
}

// Parse resolves a CLI -disrupt argument: a preset name, or a path to a
// JSON-encoded Spec (recognized by a .json suffix or an @ prefix).
func Parse(arg string, nodes, landmarks int, start, end trace.Time) (Spec, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok || strings.HasSuffix(arg, ".json") {
		if !ok {
			path = arg
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return Spec{}, fmt.Errorf("disrupt: %w", err)
		}
		var sp Spec
		if err := json.Unmarshal(blob, &sp); err != nil {
			return Spec{}, fmt.Errorf("disrupt: parsing %s: %w", path, err)
		}
		return sp, nil
	}
	return Preset(arg, nodes, landmarks, start, end)
}
