package sim

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/trace"
)

// Workload describes packet generation (Section V-A.1): packets appear at
// landmark stations with random destination landmarks, at a configured
// rate.
type Workload struct {
	// Rate is the number of packets per day. When PerLandmark is false it
	// is network-wide (random source landmark); when true, every landmark
	// generates Rate packets per day evenly spread over the daytime, as
	// in the campus deployment ("each landmark generates 75 packets evenly
	// in the daytime each day").
	Rate        float64
	PerLandmark bool
	// DaytimeOnly restricts generation to 08:00–20:00.
	DaytimeOnly bool
	PacketSize  int64
	TTL         trace.Time
	// FixedDst routes every packet to this landmark, except the packets
	// that start there, which draw another; -1 draws uniformly.
	FixedDst int
	// DstNodes, when non-nil, addresses each packet to a random node from
	// the slice instead of a landmark (Section IV-E.4 node-routing mode).
	DstNodes []int
	// Surges adds flash-crowd traffic spikes on top of the base rate
	// (internal/disrupt compiles them from a disruption spec). They are
	// scheduled inside Schedule from the same RNG stream as the base
	// workload, so New, NewSharded and Fork — all of which draw with
	// PacketSchedule — see identical packets.
	Surges []Surge
}

// Surge is one flash-crowd spike: Rate extra packets per day, generated
// during [Start, End) with sources drawn uniformly from Landmarks instead
// of the whole landmark set. Landmark IDs outside the trace are ignored.
type Surge struct {
	Start, End trace.Time
	Landmarks  []int
	Rate       float64
}

// NewWorkload returns a network-wide workload with uniform random sources
// and destinations.
func NewWorkload(ratePerDay float64, pktSize int64, ttl trace.Time) *Workload {
	return &Workload{Rate: ratePerDay, PacketSize: pktSize, TTL: ttl, FixedDst: -1}
}

// PacketSchedule returns the packets a run with cfg generates over the
// span [start, end): the workload schedule over the measurement window
// [start+Warmup, end), drawn from a fresh RNG seeded with cfg.Seed. It is
// the engine's own draw — New, NewSharded and Fork all call it — so the
// oracle reproduces a run's packet list exactly by calling it too. A nil
// workload generates nothing.
func PacketSchedule(w *Workload, cfg Config, start, end trace.Time, numLandmarks int) []*Packet {
	if w == nil {
		return nil
	}
	return w.Schedule(rand.New(rand.NewSource(cfg.Seed)), start+cfg.Warmup, end, numLandmarks)
}

// Schedule materialises the packet arrivals in [from, to). Packets are
// evenly spaced with small jitter so results are stable across seeds at
// equal rates; the destination (and source) draws use rng.
func (w *Workload) Schedule(rng *rand.Rand, from, to trace.Time, numLandmarks int) []*Packet {
	if w.Rate <= 0 || to <= from || numLandmarks == 0 {
		return nil
	}
	firstDay, lastDay := int(from/trace.Day), int(to/trace.Day)
	// window returns day d's generation window, clipped to [from, to).
	window := func(d int) (lo, hi trace.Time) {
		base := trace.Time(d) * trace.Day
		lo, hi = base, base+trace.Day
		if w.DaytimeOnly {
			lo, hi = base+8*trace.Hour, base+20*trace.Hour
		}
		return max(lo, from), min(hi, to)
	}
	// surge returns sg's window, clipped to [from, to), and its count.
	surge := func(sg Surge) (lo, hi trace.Time, n int) {
		lo, hi = max(sg.Start, from), min(sg.End, to)
		if sg.Rate <= 0 || hi <= lo {
			return lo, hi, 0
		}
		return lo, hi, int(sg.Rate * float64(hi-lo) / float64(trace.Day))
	}
	// Size everything once: a day draws at most ⌈Rate⌉ packets per
	// source. One slab holds every packet in generation (≈ creation-time)
	// order; it never grows past the bound, so its &slab[i] handles stay
	// valid (were it to grow, append would move only later packets).
	days := 0
	for d := firstDay; d <= lastDay; d++ {
		if lo, hi := window(d); lo < hi {
			days++
		}
	}
	perSource := days * int(math.Ceil(w.Rate))
	bound := perSource
	if w.PerLandmark {
		bound *= numLandmarks
	}
	for _, sg := range w.Surges {
		_, _, n := surge(sg)
		bound += n
	}
	slab := make([]Packet, 0, bound)
	pkts := make([]*Packet, 0, bound)
	newPacket := func(t trace.Time, src int) {
		dst := w.FixedDst
		for dst < 0 || dst == src {
			dst = rng.Intn(numLandmarks)
			if numLandmarks == 1 {
				break
			}
		}
		dstNode := -1
		if len(w.DstNodes) > 0 {
			dstNode = w.DstNodes[rng.Intn(len(w.DstNodes))]
		}
		slab = append(slab, Packet{
			ID:       len(pkts),
			Src:      src,
			Dst:      dst,
			DstNode:  dstNode,
			Size:     w.PacketSize,
			Created:  t,
			Expiry:   t + w.TTL,
			NextHop:  -1,
			ExpDelay: 1e308,
		})
		pkts = append(pkts, &slab[len(slab)-1])
	}
	// genTimes fills ts with one source's base generation times; each
	// call reuses it.
	ts := make([]trace.Time, 0, perSource)
	genTimes := func() []trace.Time {
		ts = ts[:0]
		for d := firstDay; d <= lastDay; d++ {
			lo, hi := window(d)
			n := int(w.Rate)
			if rng.Float64() < w.Rate-float64(n) {
				n++
			}
			if n <= 0 || hi <= lo {
				continue
			}
			step := (hi - lo) / trace.Time(n)
			if step < 1 {
				step = 1
			}
			for i := 0; i < n; i++ {
				t := lo + trace.Time(i)*step + trace.Time(rng.Int63n(int64(step)))
				if t < to {
					ts = append(ts, t)
				}
			}
		}
		return ts
	}
	if w.PerLandmark {
		for src := 0; src < numLandmarks; src++ {
			if src == w.FixedDst {
				continue // the sink does not send to itself
			}
			for _, t := range genTimes() {
				newPacket(t, src)
			}
		}
	} else {
		for _, t := range genTimes() {
			newPacket(t, rng.Intn(numLandmarks))
		}
	}
	for _, sg := range w.Surges {
		lo, hi, n := surge(sg)
		var srcs []int
		for _, lm := range sg.Landmarks {
			if lm >= 0 && lm < numLandmarks {
				srcs = append(srcs, lm)
			}
		}
		if n <= 0 || len(srcs) == 0 {
			continue
		}
		step := (hi - lo) / trace.Time(n)
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i++ {
			t := lo + trace.Time(i)*step + trace.Time(rng.Int63n(int64(step)))
			if t < hi {
				newPacket(t, srcs[rng.Intn(len(srcs))])
			}
		}
	}
	sort.Slice(pkts, func(i, j int) bool {
		if pkts[i].Created != pkts[j].Created {
			return pkts[i].Created < pkts[j].Created
		}
		return pkts[i].ID < pkts[j].ID
	})
	for i, p := range pkts {
		p.ID = i
	}
	return pkts
}
