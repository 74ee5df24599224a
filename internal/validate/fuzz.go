package validate

import (
	"fmt"
	"math/rand"
	"reflect"

	"repro/internal/core"
	"repro/internal/disrupt"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ScenarioSpec is a compact, fully clamped description of a randomized
// small scenario: a routine-based trace (synth.Small) plus the simulation
// knobs the invariants are sensitive to. Every field is normalized into a
// bounded range before use, so arbitrary fuzzer-mutated values always
// yield a runnable scenario — the property under test never gets to hide
// behind a construction error.
type ScenarioSpec struct {
	Seed         int64
	Nodes        int
	Landmarks    int
	Days         int
	CycleLen     int
	TTLHours     int
	NodeMemKB    int
	StationMemKB int // 0 = unlimited, the paper's setting
	RatePerDay   int
	LinkRate     float64
	FollowPct    int // routine-following probability, percent
	MissPct      int // visit-record loss probability, percent

	// Disruption knobs, compiled into a disrupt.Spec by Disruption(). All
	// zero means a steady-state scenario; any non-zero knob perturbs the
	// run and arms the checker's disruption-aware invariants.
	OutageLMs    int // landmarks taken offline (0-3)
	OutageHours  int // length of each outage window
	ChurnNodes   int // nodes churned out mid-run (0-8)
	ChurnHours   int // absence length; 0 = the node never returns
	DriftShift   int // community-drift landmark rotation (0 = no drift)
	LinkSeverPct int // transit-link 0->1 drop probability, percent
	CrowdRate    int // flash-crowd extra packets/day (0 = no crowd)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampFloat(v, lo, hi float64) float64 {
	if !(v >= lo) { // catches NaN
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Normalize clamps every field into its valid range and returns the
// result. The bounds keep a single run in the low milliseconds, so a fuzz
// iteration (a dozen runs per spec) stays cheap.
func (s ScenarioSpec) Normalize() ScenarioSpec {
	if s.Seed < 0 {
		s.Seed = -s.Seed
	}
	s.Nodes = clampInt(s.Nodes, 2, 40)
	s.Landmarks = clampInt(s.Landmarks, 2, 10)
	s.Days = clampInt(s.Days, 2, 8)
	s.CycleLen = clampInt(s.CycleLen, 2, 5)
	s.TTLHours = clampInt(s.TTLHours, 2, 96)
	s.NodeMemKB = clampInt(s.NodeMemKB, 1, 64)
	s.StationMemKB = clampInt(s.StationMemKB, 0, 64)
	s.RatePerDay = clampInt(s.RatePerDay, 1, 200)
	s.LinkRate = clampFloat(s.LinkRate, 0.05, 4)
	s.FollowPct = clampInt(s.FollowPct, 50, 95)
	s.MissPct = clampInt(s.MissPct, 0, 30)
	s.OutageLMs = clampInt(s.OutageLMs, 0, 3)
	s.OutageHours = clampInt(s.OutageHours, 1, 48)
	s.ChurnNodes = clampInt(s.ChurnNodes, 0, 8)
	s.ChurnHours = clampInt(s.ChurnHours, 0, 48)
	s.DriftShift = clampInt(s.DriftShift, 0, 4)
	s.LinkSeverPct = clampInt(s.LinkSeverPct, 0, 100)
	s.CrowdRate = clampInt(s.CrowdRate, 0, 300)
	return s
}

func (s ScenarioSpec) String() string {
	d := ""
	if s.Disruption() != nil {
		d = fmt.Sprintf(" outage=%dx%dh churn=%dx%dh drift=%d sever=%d%% crowd=%d/d",
			s.OutageLMs, s.OutageHours, s.ChurnNodes, s.ChurnHours, s.DriftShift, s.LinkSeverPct, s.CrowdRate)
	}
	return fmt.Sprintf("spec{seed=%d nodes=%d lms=%d days=%d cycle=%d ttl=%dh mem=%dkB stmem=%dkB rate=%d/d link=%.2f follow=%d%% miss=%d%%%s}",
		s.Seed, s.Nodes, s.Landmarks, s.Days, s.CycleLen, s.TTLHours, s.NodeMemKB,
		s.StationMemKB, s.RatePerDay, s.LinkRate, s.FollowPct, s.MissPct, d)
}

// Trace generates the spec's mobility trace (deterministic in the spec).
func (s ScenarioSpec) Trace() *trace.Trace {
	return synth.Small(synth.SmallConfig{
		Seed:       s.Seed,
		Nodes:      s.Nodes,
		Landmarks:  s.Landmarks,
		Days:       s.Days,
		CycleLen:   s.CycleLen,
		FollowProb: float64(s.FollowPct) / 100,
		MissProb:   float64(s.MissPct) / 100,
	})
}

// Disruption compiles the spec's disruption knobs into a disrupt.Spec,
// deterministically placed over the scenario's [0, Days) span in
// span-eighths (the same placement scheme disrupt.Preset uses). It
// returns nil when every knob is zero — a steady-state scenario.
func (s ScenarioSpec) Disruption() *disrupt.Spec {
	if s.OutageLMs == 0 && s.ChurnNodes == 0 && s.DriftShift == 0 &&
		s.LinkSeverPct == 0 && s.CrowdRate == 0 {
		return nil
	}
	q := trace.Time(s.Days) * trace.Day / 8
	sp := &disrupt.Spec{Seed: s.Seed + 2}
	for i := 0; i < s.OutageLMs; i++ {
		start := 2*q + trace.Time(i)*q
		sp.Outages = append(sp.Outages, disrupt.Outage{
			Landmark: i % s.Landmarks,
			Start:    start,
			End:      start + trace.Time(s.OutageHours)*trace.Hour,
		})
	}
	if s.LinkSeverPct > 0 && s.Landmarks >= 2 {
		sp.Links = []disrupt.LinkFault{{
			From: 0, To: 1, Start: 2 * q, End: 6 * q,
			DropProb: float64(s.LinkSeverPct) / 100,
		}}
	}
	for i := 0; i < s.ChurnNodes; i++ {
		down := 3*q + trace.Time(i)*q/4
		up := down // ChurnHours == 0: the node never returns
		if s.ChurnHours > 0 {
			up = down + trace.Time(s.ChurnHours)*trace.Hour
		}
		sp.Churn = append(sp.Churn, disrupt.Churn{Node: (i * 3) % s.Nodes, Down: down, Up: up})
	}
	if s.DriftShift > 0 {
		sp.Drifts = []disrupt.Drift{{At: 4 * q, Mod: 2, Rem: 0, Shift: s.DriftShift}}
	}
	if s.CrowdRate > 0 {
		lms := []int{0}
		if s.Landmarks > 2 {
			lms = append(lms, s.Landmarks/2)
		}
		sp.Crowds = []disrupt.FlashCrowd{{Start: 5 * q, End: 6 * q, Landmarks: lms, Rate: float64(s.CrowdRate)}}
	}
	if sp.Empty() { // e.g. only LinkSeverPct set but Landmarks < 2
		return nil
	}
	return sp
}

// perturbedTrace generates the spec's trace with its disruption applied.
// A perturbation that breaks the stream order is a disrupt bug, not a
// scenario property, so it panics rather than failing a property.
func (s ScenarioSpec) perturbedTrace() *trace.Trace {
	tr, err := disrupt.Perturb(s.Trace(), s.Disruption())
	if err != nil {
		panic(fmt.Sprintf("validate: disrupted trace violates stream order: %v", err))
	}
	return tr
}

// noDisrupt returns the spec with every disruption knob cleared. The
// metamorphic properties compare steady-state variants: node relabeling
// breaks node-keyed perturbations, and TTL/buffer monotonicity are not
// laws once churn flushes and flash crowds enter the picture.
func (s ScenarioSpec) noDisrupt() ScenarioSpec {
	s.OutageLMs, s.ChurnNodes, s.DriftShift, s.LinkSeverPct, s.CrowdRate = 0, 0, 0, 0, 0
	return s
}

// Config returns the sim configuration for the given trace duration.
func (s ScenarioSpec) Config(duration trace.Time) sim.Config {
	cfg := sim.DefaultConfig(duration)
	cfg.Seed = s.Seed + 1
	cfg.TTL = trace.Time(s.TTLHours) * trace.Hour
	cfg.Unit = 6 * trace.Hour
	cfg.NodeMemory = int64(s.NodeMemKB) * 1024
	cfg.StationMemory = int64(s.StationMemKB) * 1024
	cfg.LinkRate = s.LinkRate
	return cfg
}

// runOn simulates one method on the given trace with optional checker and
// probe attached. The spec's disruption engine actions and workload
// surges are applied; the trace must already be the perturbed one (see
// perturbedTrace) for the three axes to describe the same scenario.
func (s ScenarioSpec) runOn(tr *trace.Trace, method string, ck sim.Checker, probe *telemetry.Probe) metrics.Summary {
	return s.runRouter(tr, experiment.NewRouter(method), ck, probe)
}

// runRouter is runOn with an explicit router instance.
func (s ScenarioSpec) runRouter(tr *trace.Trace, r sim.Router, ck sim.Checker, probe *telemetry.Probe) metrics.Summary {
	cfg := s.Config(tr.Duration())
	cfg.Check = ck
	cfg.Probe = probe
	w := sim.NewWorkload(float64(s.RatePerDay), cfg.PacketSize, cfg.TTL)
	s.Disruption().Apply(&cfg, w)
	return sim.New(tr, r, w, cfg).Run().Summary
}

// Run simulates one method on the spec's own (disruption-perturbed)
// trace.
func (s ScenarioSpec) Run(method string, ck sim.Checker, probe *telemetry.Probe) metrics.Summary {
	return s.runOn(s.perturbedTrace(), method, ck, probe)
}

// method picks the spec's designated single-run method, rotating through
// the comparison set so a fuzz campaign exercises all of them.
func (s ScenarioSpec) method() string {
	i := int(s.Seed+int64(s.Nodes)) % len(experiment.MethodNames)
	if i < 0 {
		i += len(experiment.MethodNames)
	}
	return experiment.MethodNames[i]
}

// RandomSpec draws a spec from the generator's full parameter space.
// Each disruption family switches on with probability 1/3, so the
// campaign mixes steady-state scenarios (~13%) with every perturbation
// combination.
func RandomSpec(rng *rand.Rand) ScenarioSpec {
	maybe := func(n int) int {
		if rng.Intn(3) == 0 {
			return n
		}
		return 0
	}
	return ScenarioSpec{
		Seed:         rng.Int63n(1 << 32),
		Nodes:        4 + rng.Intn(37),
		Landmarks:    2 + rng.Intn(9),
		Days:         2 + rng.Intn(7),
		CycleLen:     2 + rng.Intn(4),
		TTLHours:     2 + rng.Intn(95),
		NodeMemKB:    1 + rng.Intn(64),
		StationMemKB: rng.Intn(65),
		RatePerDay:   1 + rng.Intn(200),
		LinkRate:     0.05 + rng.Float64()*3.95,
		FollowPct:    50 + rng.Intn(46),
		MissPct:      rng.Intn(31),
		OutageLMs:    maybe(1 + rng.Intn(3)),
		OutageHours:  1 + rng.Intn(48),
		ChurnNodes:   maybe(1 + rng.Intn(8)),
		ChurnHours:   rng.Intn(49),
		DriftShift:   maybe(1 + rng.Intn(4)),
		LinkSeverPct: maybe(1 + rng.Intn(100)),
		CrowdRate:    maybe(1 + rng.Intn(300)),
	}.Normalize()
}

// FuzzOptions tunes a fuzz campaign. A campaign stops at its first
// failure, shrunk to a minimal reproduction.
type FuzzOptions struct {
	Specs int   // number of random specs to try (default 20)
	Seed  int64 // campaign RNG seed (default 1)
	Log   func(format string, args ...any)
}

func (o FuzzOptions) normalized() FuzzOptions {
	if o.Specs <= 0 {
		o.Specs = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// FuzzFailure is one property violation, shrunk to a minimal spec.
type FuzzFailure struct {
	Original ScenarioSpec // spec the failure was first found on
	Spec     ScenarioSpec // shrunk reproduction
	Property string
	Detail   string
	Shrinks  int // accepted shrink steps
}

func (f FuzzFailure) String() string {
	return fmt.Sprintf("property %q failed (%d shrinks): %s\n  repro: %v", f.Property, f.Shrinks, f.Detail, f.Spec)
}

// property is one checkable law of the simulator; fn returns "" on pass
// and a failure detail otherwise.
type property struct {
	name string
	fn   func(s ScenarioSpec) string
}

// properties is the fuzzer's battery, ordered cheap-first. The metamorphic
// properties are tolerance-based, not exact: delivery success is not a
// strict theorem in TTL or buffer size (scores depend on remaining TTL, so
// a longer deadline can reroute packets worse), and node relabeling
// changes the tie-break order of simultaneous visits. The tolerances are
// calibrated so real regressions (inverted comparisons, leaked capacity)
// still trip them.
var properties = []property{
	{"invariants", propInvariants},
	{"oracle-dominance", propOracleDominance},
	{"checker-neutral", propCheckerNeutral},
	{"balance-neutral", propBalanceNeutral},
	{"rerun-deterministic", propRerun},
	{"relabel-invariant", propRelabel},
	{"ttl-monotone", propTTLMonotone},
	{"buffer-monotone", propBufferMonotone},
}

// propInvariants runs every method under the invariant checker with a
// telemetry recorder attached (so the end-of-run cross-checks fire too).
// The run uses the spec's perturbed trace and the checker is armed with
// the disruption spec, so disrupted scenarios additionally verify the
// outage, churn, and conservation invariants.
func propInvariants(s ScenarioSpec) string {
	tr := s.perturbedTrace()
	for _, m := range experiment.MethodNames {
		ck := NewChecker()
		ck.SetDisruption(s.Disruption())
		rec := telemetry.NewRecorder(1 << 12)
		s.runOn(tr, m, ck, telemetry.NewProbe(rec))
		if err := ck.Err(); err != nil {
			return fmt.Sprintf("%s: %v", m, err)
		}
	}
	return ""
}

// propCheckerNeutral asserts the checker observes without interfering: the
// summary of a checked+probed run is bit-identical to an unobserved one.
func propCheckerNeutral(s ScenarioSpec) string {
	m := s.method()
	plain := s.Run(m, nil, nil)
	ck := NewChecker()
	ck.SetDisruption(s.Disruption())
	watched := s.Run(m, ck, telemetry.NewProbe(telemetry.NewRecorder(1<<10)))
	if !reflect.DeepEqual(plain, watched) {
		return fmt.Sprintf("%s: checked run diverged: plain %+v, checked %+v", m, plain, watched)
	}
	return ""
}

// propBalanceNeutral asserts the contact scheduler's cycle fast-forward
// is exact. DTN-FLOW with load balancing — whose long contacts ping-pong
// packets between station and contact node — runs twice on the spec:
// unobserved, where the fast-forward may fire, and under the checker with
// a probe, which must see every transfer and so forces the plain
// round-by-round loop. The summaries must be identical and the checked
// run clean.
func propBalanceNeutral(s ScenarioSpec) string {
	cfg := core.DefaultConfig()
	cfg.LoadBalance = true
	tr := s.perturbedTrace()
	fast := s.runRouter(tr, core.New(cfg), nil, nil)
	ck := NewChecker()
	ck.SetDisruption(s.Disruption())
	plain := s.runRouter(tr, core.New(cfg), ck, telemetry.NewProbe(telemetry.NewRecorder(1<<10)))
	if err := ck.Err(); err != nil {
		return fmt.Sprintf("balanced DTN-FLOW: %v", err)
	}
	if !reflect.DeepEqual(fast, plain) {
		return fmt.Sprintf("balanced DTN-FLOW: fast-forwarded run diverged: fast %+v, plain %+v", fast, plain)
	}
	return ""
}

// propRerun asserts equal seeds produce bit-identical results.
func propRerun(s ScenarioSpec) string {
	m := s.method()
	a := s.Run(m, nil, nil)
	b := s.Run(m, nil, nil)
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("%s: rerun diverged: %+v vs %+v", m, a, b)
	}
	return ""
}

// propRelabel asserts node identity does not matter: reversing the node
// IDs leaves the delivery outcome within tolerance (exact equality cannot
// hold — simultaneous visits are processed in node-ID order).
func propRelabel(s ScenarioSpec) string {
	s = s.noDisrupt() // node-keyed perturbations are not relabel-invariant
	m := s.method()
	tr := s.Trace()
	rl := tr.Clone()
	rl.Name = tr.Name + "-relabel"
	for i := range rl.Visits {
		rl.Visits[i].Node = rl.NumNodes - 1 - rl.Visits[i].Node
	}
	rl.SortVisits()
	a := s.runOn(tr, m, nil, nil)
	b := s.runOn(rl, m, nil, nil)
	if a.Generated != b.Generated {
		return fmt.Sprintf("%s: relabeling changed the workload: %d vs %d generated", m, a.Generated, b.Generated)
	}
	if d := absInt(a.Delivered - b.Delivered); d > slack(a.Generated) {
		return fmt.Sprintf("%s: relabeling moved deliveries by %d of %d (%d vs %d)",
			m, d, a.Generated, a.Delivered, b.Delivered)
	}
	return ""
}

// propTTLMonotone asserts doubling the TTL does not lose deliveries beyond
// tolerance. The comparison runs with ample buffers: under memory
// pressure, longer-lived packets occupy scarce buffer space longer and
// genuinely crowd out deliverable traffic, so TTL monotonicity is only a
// law of the congestion-free regime.
func propTTLMonotone(s ScenarioSpec) string {
	s = s.noDisrupt() // churn flushes and crowds break the monotone law
	s.NodeMemKB = 64
	s.StationMemKB = 0
	loose := s
	loose.TTLHours = clampInt(s.TTLHours*2, 2, 96)
	if loose.TTLHours == s.TTLHours {
		return ""
	}
	return propMonotone(s, loose, "TTL")
}

// propBufferMonotone asserts doubling the node memory does not lose
// deliveries beyond tolerance.
func propBufferMonotone(s ScenarioSpec) string {
	s = s.noDisrupt() // churn flushes and crowds break the monotone law
	loose := s
	loose.NodeMemKB = clampInt(s.NodeMemKB*2, 1, 64)
	if loose.NodeMemKB == s.NodeMemKB {
		return ""
	}
	return propMonotone(s, loose, "node memory")
}

func propMonotone(tight, loose ScenarioSpec, what string) string {
	m := tight.method()
	a := tight.Run(m, nil, nil)
	b := loose.Run(m, nil, nil)
	if drop := a.Delivered - b.Delivered; drop > slack(a.Generated) {
		return fmt.Sprintf("%s: doubling %s lost %d of %d deliveries (%d -> %d)",
			m, what, drop, a.Generated, a.Delivered, b.Delivered)
	}
	return ""
}

// Metamorphic tolerances: a relabeled or loosened run may deliver up to
// metaTol of the generated packets fewer, and never less than metaMinSlack
// packets of slack.
const (
	metaTol      float64 = 0.12
	metaMinSlack         = 3
)

// slack converts the relative tolerance into an allowed packet count.
func slack(generated int) int {
	s := int(metaTol * float64(generated))
	if s < metaMinSlack {
		s = metaMinSlack
	}
	return s
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// CheckSpec runs the full property battery on one spec and returns the
// first failing property and its detail ("", "" when all pass). The
// native fuzz targets call this directly.
func CheckSpec(s ScenarioSpec) (prop, detail string) {
	s = s.Normalize()
	for _, p := range properties {
		if d := p.fn(s); d != "" {
			return p.name, d
		}
	}
	return "", ""
}

// Fuzz runs a property-based campaign: random specs through the property
// battery until the first failure, which it shrinks to a minimal
// reproduction. It returns that failure (nil when the campaign is clean).
func Fuzz(opt FuzzOptions) []FuzzFailure {
	opt = opt.normalized()
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := 0; i < opt.Specs; i++ {
		s := RandomSpec(rng)
		prop, detail := CheckSpec(s)
		if prop == "" {
			opt.Log("spec %d/%d ok: %v", i+1, opt.Specs, s)
			continue
		}
		opt.Log("spec %d/%d FAILED %q: %s", i+1, opt.Specs, prop, detail)
		f := shrink(s, prop, detail)
		opt.Log("shrunk after %d steps to %v", f.Shrinks, f.Spec)
		return []FuzzFailure{f}
	}
	return nil
}

// shrink greedily minimizes a failing spec: every round proposes the
// halving of each size-like dimension and keeps the first candidate on
// which the same property still fails, until no reduction reproduces it.
func shrink(s ScenarioSpec, prop, detail string) FuzzFailure {
	fails := func(c ScenarioSpec) (bool, string) {
		p, d := CheckSpec(c)
		return p == prop, d
	}
	f := FuzzFailure{Original: s, Spec: s, Property: prop, Detail: detail}
	const maxRounds = 24
	for round := 0; round < maxRounds; round++ {
		improved := false
		for _, c := range shrinkCandidates(f.Spec) {
			if c == f.Spec {
				continue
			}
			if ok, d := fails(c); ok {
				f.Spec, f.Detail = c, d
				f.Shrinks++
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return f
}

// shrinkCandidates proposes one-dimension reductions of s, biggest levers
// first (fewer days and nodes shrink the event count fastest).
func shrinkCandidates(s ScenarioSpec) []ScenarioSpec {
	var out []ScenarioSpec
	mutate := func(fn func(*ScenarioSpec)) {
		c := s
		fn(&c)
		out = append(out, c.Normalize())
	}
	mutate(func(c *ScenarioSpec) { c.Days /= 2 })
	mutate(func(c *ScenarioSpec) { c.Nodes /= 2 })
	mutate(func(c *ScenarioSpec) { c.RatePerDay /= 2 })
	mutate(func(c *ScenarioSpec) { c.Landmarks /= 2 })
	mutate(func(c *ScenarioSpec) { c.TTLHours /= 2 })
	mutate(func(c *ScenarioSpec) { c.NodeMemKB /= 2 })
	mutate(func(c *ScenarioSpec) { c.StationMemKB /= 2 })
	mutate(func(c *ScenarioSpec) { c.CycleLen-- })
	mutate(func(c *ScenarioSpec) { c.MissPct = 0 })
	mutate(func(c *ScenarioSpec) { c.FollowPct = 90 })
	// Disruption knobs: first drop whole families (localizing which
	// perturbation matters), then shrink the surviving one.
	mutate(func(c *ScenarioSpec) { c.OutageLMs = 0 })
	mutate(func(c *ScenarioSpec) { c.ChurnNodes = 0 })
	mutate(func(c *ScenarioSpec) { c.LinkSeverPct = 0 })
	mutate(func(c *ScenarioSpec) { c.DriftShift = 0 })
	mutate(func(c *ScenarioSpec) { c.CrowdRate = 0 })
	mutate(func(c *ScenarioSpec) { c.OutageLMs /= 2 })
	mutate(func(c *ScenarioSpec) { c.OutageHours /= 2 })
	mutate(func(c *ScenarioSpec) { c.ChurnNodes /= 2 })
	mutate(func(c *ScenarioSpec) { c.ChurnHours /= 2 })
	mutate(func(c *ScenarioSpec) { c.DriftShift /= 2 })
	mutate(func(c *ScenarioSpec) { c.LinkSeverPct /= 2 })
	mutate(func(c *ScenarioSpec) { c.CrowdRate /= 2 })
	return out
}
