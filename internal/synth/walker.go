package synth

import (
	"math/rand"

	"repro/internal/geo"
	"repro/internal/trace"
)

// This file splits the DART/DNET generators into a shared topology
// prologue and resumable per-node walkers. The materializing DART/DNET
// functions drive the walkers node by node with one shared RNG — byte
// identical to the original single-loop generators — while the streaming
// sources (stream.go) drive each walker with its own derived RNG so nodes
// can be filled independently and merged in time order.
//
// Determinism contract: a walker consumes random draws in exactly the
// order the original generator loop did — including draws whose results
// are discarded — so a given (topology, node RNG) pair always yields the
// same visit sequence regardless of how step calls are batched.
//
// Horizon clamp: every emitted visit ends at or before the walker's end
// (cfg.Days × Day) — each visit end is clamped to it (DART vEnd, DNET
// vEnd and the garage return back) — and a walker stops once its clock
// reaches it. streamSource.Span stops searching for the stream's largest
// end as soon as some visit ends exactly there, so a walker that let an
// End past the horizon would make that span wrong.

// dartTopo is the shared DART campus layout: landmark positions, holiday
// windows, and the community→place assignment. Building it consumes the
// generator's prologue draws (scatterPoints) from the shared RNG.
type dartTopo struct {
	cfg                DARTConfig
	pos                []geo.Point
	holidays           [][2]int
	numDining, numHubs int
	poolStart, poolLen int
}

func newDARTTopo(cfg DARTConfig, rng *rand.Rand) *dartTopo {
	tp := &dartTopo{
		cfg:      cfg,
		pos:      scatterPoints(rng, cfg.Landmarks, cfg.CampusWidth, cfg.CampusHeight, 60),
		holidays: defaultHolidays(),
	}
	nC := cfg.Communities
	tp.numDining = nC/2 + 1
	tp.numHubs = nC/4 + 1
	tp.poolStart = 2*nC + tp.numDining + tp.numHubs
	tp.poolLen = cfg.Landmarks - tp.poolStart
	if tp.poolLen < 0 {
		tp.poolStart, tp.poolLen = 0, cfg.Landmarks
	}
	return tp
}

func (tp *dartTopo) dorm(c int) int { return c % tp.cfg.Landmarks }
func (tp *dartTopo) dept(c int) int { return (tp.cfg.Communities + c) % tp.cfg.Landmarks }
func (tp *dartTopo) dine(c int) int { return (2*tp.cfg.Communities + c/2) % tp.cfg.Landmarks }
func (tp *dartTopo) hub(c int) int {
	return (2*tp.cfg.Communities + tp.numDining + c/4) % tp.cfg.Landmarks
}

// dartWalker is one student's resumable state machine. Each step performs
// one dwell-and-move iteration and emits at most one visit.
type dartWalker struct {
	topo   *dartTopo
	node   int
	home   int
	extras []int
	rt     routine
	cur    int
	t      trace.Time
	end    trace.Time
	done   bool
}

// newDARTWalker consumes the per-student prologue draws (regular-place
// picks, cycle shuffle, exploration extras, initial offset) from rng.
func newDARTWalker(tp *dartTopo, n int, rng *rand.Rand) *dartWalker {
	cfg := tp.cfg
	c := n % cfg.Communities
	home := tp.dorm(c)
	mid := []int{tp.dept(c), tp.dine(c), tp.hub(c)}
	if tp.poolLen > 0 {
		mid = append(mid, tp.poolStart+(2*n)%tp.poolLen)
		if rng.Float64() < 0.5 {
			mid = append(mid, tp.poolStart+(2*n+1)%tp.poolLen)
		}
	}
	rng.Shuffle(len(mid), func(i, j int) { mid[i], mid[j] = mid[j], mid[i] })
	cycle := append([]int{home}, mid...)
	cycle = dedupeCycle(cycle)
	extras := append([]int(nil), cycle...)
	for e := 0; e < 2+rng.Intn(3); e++ {
		extras = append(extras, rng.Intn(cfg.Landmarks))
	}
	w := &dartWalker{
		topo:   tp,
		node:   n,
		home:   home,
		extras: extras,
		rt:     routine{cycle: cycle},
		cur:    home,
		end:    trace.Time(cfg.Days) * trace.Day,
	}
	w.t = trace.Time(rng.Intn(int(2 * trace.Hour)))
	return w
}

// step runs one iteration of the student's day loop, appending any emitted
// visit to buf. It reports done=true once the walker has reached the end of
// the trace; further calls are no-ops.
func (w *dartWalker) step(rng *rand.Rand, buf []trace.Visit) ([]trace.Visit, bool) {
	if w.done || w.t >= w.end {
		w.done = true
		return buf, true
	}
	cfg := &w.topo.cfg
	t := w.t
	day := dayOf(t)
	active := 1.0
	if isWeekend(day) {
		active = 0.55
	}
	for _, h := range w.topo.holidays {
		if day >= h[0] && day <= h[1] {
			active = 0.12
		}
	}
	sod := secondOfDay(t)
	var dwell trace.Time
	switch {
	case sod < 8*trace.Hour || sod > 22*trace.Hour:
		// Night: stay home until ~8am (go home if elsewhere).
		// Occasionally the student stays in the whole next day — the
		// dead-end situation of Section IV-E.1.
		if w.cur != w.home {
			w.cur = w.home
			w.rt.pos = 0
		}
		morning := trace.Time(dayOf(t))*trace.Day + 8*trace.Hour
		if sod > 22*trace.Hour {
			morning += trace.Day
		}
		if rng.Float64() < cfg.IdleDayProb {
			morning += 2 * trace.Day
		}
		dwell = morning - t + trace.Time(rng.Intn(int(trace.Hour)))
	case rng.Float64() > active:
		// Inactive period (weekend/holiday): long dwell in place.
		dwell = clampTime(trace.Time(logNormal(rng, float64(5*trace.Hour), 0.5)), trace.Hour, 14*trace.Hour)
	default:
		dwell = clampTime(trace.Time(logNormal(rng, float64(75*trace.Minute), 0.6)), 10*trace.Minute, 5*trace.Hour)
	}
	vEnd := t + dwell
	if vEnd > w.end {
		vEnd = w.end // horizon clamp
	}
	if rng.Float64() >= cfg.MissProb {
		buf = append(buf, trace.Visit{Node: w.node, Landmark: w.cur, Start: t, End: vEnd})
	}
	if vEnd >= w.end {
		w.done = true
		return buf, true
	}
	next := w.rt.next(rng, cfg.FollowProb, w.extras, w.cur)
	w.t = vEnd + travelTime(rng, w.topo.pos[w.cur], w.topo.pos[next], 1.4)
	w.cur = next
	return buf, false
}

// dnetTopo is the shared DNET town layout: stop positions, each stop's
// nearest neighbour (for association noise), and the route templates.
// Building it consumes the generator's prologue draws from the shared RNG.
type dnetTopo struct {
	cfg     DNETConfig
	pos     []geo.Point
	nearest []int
	routes  [][]int
}

func newDNETTopo(cfg DNETConfig, rng *rand.Rand) *dnetTopo {
	tp := &dnetTopo{
		cfg: cfg,
		pos: scatterPoints(rng, cfg.Landmarks, cfg.TownSize, cfg.TownSize, 800),
	}

	// Precompute each landmark's nearest neighbour for association noise.
	tp.nearest = make([]int, cfg.Landmarks)
	for i := range tp.nearest {
		best, bestD := i, 1e18
		for j := range tp.pos {
			if j == i {
				continue
			}
			if d := geo.Dist(tp.pos[i], tp.pos[j]); d < bestD {
				best, bestD = j, d
			}
		}
		tp.nearest[i] = best
	}

	// Route templates: cyclic stop sequences built by dealing the shuffled
	// stop list across routes — every stop is on at least one route — plus
	// one or two shared transfer stops per route, so routes overlap and
	// flow concentrates on few links (O2).
	perm := rng.Perm(cfg.Landmarks)
	tp.routes = make([][]int, cfg.Routes)
	for i, s := range perm {
		tp.routes[i%cfg.Routes] = append(tp.routes[i%cfg.Routes], s)
	}
	for r := range tp.routes {
		for e := 0; e < 1+rng.Intn(2); e++ {
			s := rng.Intn(cfg.Landmarks)
			dup := false
			for _, x := range tp.routes[r] {
				if x == s {
					dup = true
					break
				}
			}
			if !dup {
				at := rng.Intn(len(tp.routes[r]) + 1)
				tp.routes[r] = append(tp.routes[r][:at], append([]int{s}, tp.routes[r][at:]...)...)
			}
		}
	}
	return tp
}

// dnetWalker is one bus's resumable state machine. A step emits at most two
// visits (a stop visit plus the depot visit of a garage retirement).
type dnetWalker struct {
	topo *dnetTopo
	node int
	rt   routine
	cur  int
	t    trace.Time
	end  trace.Time
	done bool
}

// newDNETWalker consumes the bus's initial departure offset from rng. Half
// the buses of each route run it in the opposite direction, so matching
// transit links carry balanced flow (observation O3) while each individual
// bus keeps a deterministic order-1 routine.
func newDNETWalker(tp *dnetTopo, b int, rng *rand.Rand) *dnetWalker {
	cyc := tp.routes[b%tp.cfg.Routes]
	if (b/tp.cfg.Routes)%2 == 1 {
		rev := make([]int, len(cyc))
		for i, s := range cyc {
			rev[len(cyc)-1-i] = s
		}
		cyc = rev
	}
	w := &dnetWalker{
		topo: tp,
		node: b,
		rt:   routine{cycle: cyc},
		end:  trace.Time(tp.cfg.Days) * trace.Day,
	}
	w.cur = w.rt.cycle[0]
	w.t = trace.Time(6*trace.Hour) + trace.Time(rng.Intn(int(30*trace.Minute)))
	return w
}

// step runs one iteration of the bus's service loop, appending any emitted
// visits to buf. It reports done=true once the walker has reached the end
// of the trace; further calls are no-ops.
func (w *dnetWalker) step(rng *rand.Rand, buf []trace.Visit) ([]trace.Visit, bool) {
	if w.done || w.t >= w.end {
		w.done = true
		return buf, true
	}
	cfg := &w.topo.cfg
	t := w.t
	sod := secondOfDay(t)
	if sod < 6*trace.Hour || sod > 22*trace.Hour {
		// Overnight at the depot (first stop of the route); the depot
		// visit is logged like any AP association.
		depot := w.rt.cycle[0]
		morning := trace.Time(dayOf(t))*trace.Day + 6*trace.Hour
		if sod > 22*trace.Hour {
			morning += trace.Day
		}
		vEnd := morning + trace.Time(rng.Intn(int(20*trace.Minute)))
		if vEnd > w.end {
			vEnd = w.end // horizon clamp
		}
		buf = append(buf, trace.Visit{Node: w.node, Landmark: depot, Start: t, End: vEnd})
		w.t = vEnd
		w.cur = depot
		w.rt.pos = 0
		if w.t >= w.end {
			w.done = true
			return buf, true
		}
		return buf, false
	}
	dwell := clampTime(trace.Time(logNormal(rng, float64(5*trace.Minute), 0.4)), 2*trace.Minute, 20*trace.Minute)
	vEnd := t + dwell
	if vEnd > w.end {
		vEnd = w.end // horizon clamp
	}
	logged := w.cur
	if rng.Float64() < cfg.NoiseProb {
		logged = w.topo.nearest[w.cur]
	}
	if rng.Float64() >= cfg.MissProb {
		buf = append(buf, trace.Visit{Node: w.node, Landmark: logged, Start: t, End: vEnd})
	}
	if vEnd >= w.end {
		w.done = true
		return buf, true
	}
	if rng.Float64() < cfg.GarageProb {
		// Unexpected maintenance: the bus drives to the depot and stays
		// out of service until the morning after next — the abrupt dead
		// end of Section IV-E.1.
		depot := w.rt.cycle[0]
		back := trace.Time(dayOf(vEnd)+2)*trace.Day + 6*trace.Hour
		if back > w.end {
			back = w.end // horizon clamp
		}
		travel := travelTime(rng, w.topo.pos[w.cur], w.topo.pos[depot], 7.0)
		if vEnd+travel < back {
			buf = append(buf, trace.Visit{Node: w.node, Landmark: depot, Start: vEnd + travel, End: back})
		}
		w.t = back
		w.cur = depot
		w.rt.pos = 0
		return buf, false
	}
	next := w.rt.next(rng, 0.97, nil, w.cur)
	w.t = vEnd + travelTime(rng, w.topo.pos[w.cur], w.topo.pos[next], 7.0)
	w.cur = next
	return buf, false
}
