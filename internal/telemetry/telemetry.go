// Package telemetry is the simulator's observability layer: typed
// lifecycle events emitted by probes compiled into the engine and router
// hot paths, recorded into a preallocated ring buffer alongside cheap
// counters and histograms, and exported as JSONL for offline
// inspection (cmd/dtnflow-inspect).
//
// Overhead contract: the probe handle carried by the hot paths is a
// concrete *Probe pointer, nil when telemetry is off. Every probe method
// is a nil-receiver no-op, so the disabled path costs one branch per
// probe point — no interface dispatch, no allocation, no change to
// simulation behaviour (verified bit-identical by the experiment
// determinism tests and BenchmarkSimulateTelemetryOff).
package telemetry

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// EventKind classifies one recorded event.
type EventKind uint8

// Event kinds. The A/B/Aux/V fields of Event are kind-specific; see the
// corresponding Probe method for the schema.
const (
	EvGenerated  EventKind = iota // packet created at its source station
	EvForwarded                   // one hand-off (see HopKind)
	EvQueued                      // packet entered a station queue
	EvDelivered                   // packet reached its destination
	EvDropped                     // packet left the system unsuccessfully
	EvAssigned                    // router committed a packet to a transit link
	EvExchange                    // baseline peer table exchange
	EvRecompute                   // routing table materially changed
	EvPredict                     // predictor outcome resolved (hit/miss)
	EvQueueDepth                  // per-landmark queue sample at a unit boundary
	EvDecision                    // forwarding decision: chosen next hop or ranked alternative
	numEventKinds
)

var kindNames = [numEventKinds]string{
	"generated", "forwarded", "queued", "delivered", "dropped",
	"assigned", "exchange", "recompute", "predict", "queuedepth",
	"decision",
}

// String returns the event kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// HopKind classifies a forwarded event.
type HopKind uint8

// Hop kinds.
const (
	HopUpload   HopKind = iota // node -> station
	HopDownload                // station -> node
	HopRelay                   // node -> node (baseline peer forwarding)
	numHopKinds
)

var hopNames = [numHopKinds]string{"up", "down", "relay"}

// String returns the hop kind's wire name.
func (h HopKind) String() string {
	if int(h) < len(hopNames) {
		return hopNames[h]
	}
	return "unknown"
}

// Event is one recorded probe emission. Pkt is -1 for events not tied to
// a packet. The meaning of A, B, Aux and V depends on Kind:
//
//	generated:  A=src landmark, B=dst landmark
//	forwarded:  Hop set; A=from entity, B=to entity (node or landmark id
//	            per the hop direction)
//	queued:     A=landmark, Aux=queue length after the insert
//	delivered:  A=landmark of delivery, V=end-to-end delay (seconds)
//	dropped:    Aux=metrics.DropReason
//	assigned:   A=from landmark, B=assigned next-hop landmark
//	exchange:   A=landmark, B=arriving node, Aux=number of peers
//	recompute:  A=landmark, Aux=changed next hops, V=max relative delay drift
//	predict:    A=node, B=predicted landmark, Aux=actual landmark,
//	            V=1 on a hit, 0 on a miss
//	queuedepth: A=landmark, Aux=queue length
//	decision:   A=landmark, B=candidate next-hop landmark, Aux=rank
//	            (0=chosen, 1..k-1=considered alternatives), V=the
//	            router's estimate for the candidate (expected delay for
//	            DTN-FLOW, utility score for baselines)
type Event struct {
	T    trace.Time `json:"t"`
	Kind EventKind  `json:"k"`
	Hop  HopKind    `json:"h,omitempty"`
	Pkt  int32      `json:"p"`
	A    int32      `json:"a"`
	B    int32      `json:"b"`
	Aux  int32      `json:"x,omitempty"`
	V    float64    `json:"v,omitempty"`
}

// Probe is the handle the hot paths carry. A nil *Probe is the disabled
// state: every method returns immediately after a nil check, making the
// off path branch-only. Create an enabled probe with NewProbe.
type Probe struct {
	rec *Recorder
}

// NewProbe returns a probe recording into rec.
func NewProbe(rec *Recorder) *Probe { return &Probe{rec: rec} }

// Enabled reports whether the probe records anything. It is safe (and
// cheap) on a nil receiver; hot paths use it to gate work that only
// feeds telemetry (e.g. computing convergence deltas).
func (p *Probe) Enabled() bool { return p != nil }

// Recorder returns the backing recorder (nil for a disabled probe).
func (p *Probe) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.rec
}

// Generated records a packet appearing at its source station.
func (p *Probe) Generated(t trace.Time, pkt, src, dst int) {
	if p == nil {
		return
	}
	p.rec.add(Event{T: t, Kind: EvGenerated, Pkt: int32(pkt), A: int32(src), B: int32(dst)})
}

// Forwarded records one hand-off of pkt from entity from to entity to.
func (p *Probe) Forwarded(t trace.Time, hop HopKind, pkt, from, to int) {
	if p == nil {
		return
	}
	p.rec.hops[hop]++
	p.rec.add(Event{T: t, Kind: EvForwarded, Hop: hop, Pkt: int32(pkt), A: int32(from), B: int32(to)})
}

// Queued records pkt entering landmark lm's station queue, whose length
// after the insert is depth.
func (p *Probe) Queued(t trace.Time, pkt, lm, depth int) {
	if p == nil {
		return
	}
	p.rec.add(Event{T: t, Kind: EvQueued, Pkt: int32(pkt), A: int32(lm), Aux: int32(depth)})
}

// Delivered records pkt delivered at landmark lm with the given
// end-to-end delay.
func (p *Probe) Delivered(t trace.Time, pkt, lm int, delay trace.Time) {
	if p == nil {
		return
	}
	p.rec.delay.Observe(float64(delay))
	p.rec.add(Event{T: t, Kind: EvDelivered, Pkt: int32(pkt), A: int32(lm), V: float64(delay)})
}

// Dropped records pkt leaving the system for the given reason.
func (p *Probe) Dropped(t trace.Time, pkt int, reason metrics.DropReason) {
	if p == nil {
		return
	}
	p.rec.drops[reason]++
	p.rec.add(Event{T: t, Kind: EvDropped, Pkt: int32(pkt), Aux: int32(reason)})
}

// Assigned records the router committing pkt at landmark from to the
// transit link from->to.
func (p *Probe) Assigned(t trace.Time, pkt, from, to int) {
	if p == nil {
		return
	}
	p.rec.add(Event{T: t, Kind: EvAssigned, Pkt: int32(pkt), A: int32(from), B: int32(to)})
}

// Exchange records a baseline peer table exchange at landmark lm between
// arriving node n and peers already-present nodes.
func (p *Probe) Exchange(t trace.Time, lm, n, peers int) {
	if p == nil {
		return
	}
	p.rec.add(Event{T: t, Kind: EvExchange, Pkt: -1, A: int32(lm), B: int32(n), Aux: int32(peers)})
}

// Recompute records landmark lm's routing table materially changing:
// changed next hops differ from the last advertised set and drift is the
// largest relative change among finite advertised delays.
func (p *Probe) Recompute(t trace.Time, lm, changed int, drift float64) {
	if p == nil {
		return
	}
	p.rec.add(Event{T: t, Kind: EvRecompute, Pkt: -1, A: int32(lm), Aux: int32(changed), V: drift})
}

// Predict records a resolved transit prediction for node n: it was
// predicted to visit predicted next and actually arrived at actual.
func (p *Probe) Predict(t trace.Time, n, predicted, actual int, hit bool) {
	if p == nil {
		return
	}
	v := 0.0
	if hit {
		v = 1
		p.rec.predictHits++
	}
	p.rec.predictTotal++
	p.rec.add(Event{T: t, Kind: EvPredict, Pkt: -1, A: int32(n), B: int32(predicted), Aux: int32(actual), V: v})
}

// Decision records one ranked candidate of a forwarding decision for
// pkt at landmark lm: rank 0 is the next hop the router chose, higher
// ranks are the alternatives it considered, and est is the router's own
// estimate for the candidate (expected delay for DTN-FLOW, utility
// score for baselines). dtnflow-inspect -regret joins these against the
// oracle's per-state optimum. Callers gate the alternative-ranking work
// behind Probe.Enabled() so the disabled path stays branch-only.
func (p *Probe) Decision(t trace.Time, pkt, lm, target, rank int, est float64) {
	if p == nil {
		return
	}
	p.rec.add(Event{T: t, Kind: EvDecision, Pkt: int32(pkt), A: int32(lm), B: int32(target), Aux: int32(rank), V: est})
}

// QueueDepth records landmark lm's station queue length at a measurement
// unit boundary.
func (p *Probe) QueueDepth(t trace.Time, lm, depth int) {
	if p == nil {
		return
	}
	p.rec.depth.Observe(float64(depth))
	p.rec.add(Event{T: t, Kind: EvQueueDepth, Pkt: -1, A: int32(lm), Aux: int32(depth)})
}

// DefaultCapacity is the default ring size: enough for every event of a
// full-scale paper run while staying around 50 MB.
const DefaultCapacity = 1 << 20

// Recorder accumulates probe events into a preallocated ring buffer plus
// counters and histograms. When the ring wraps, the oldest events are
// overwritten (Overwritten counts them) while the counters remain exact.
// A recorder serves one engine and, like the engine, is not safe for
// concurrent use; parallel sweeps give each run its own recorder.
type Recorder struct {
	ring        []Event
	next        int
	wrapped     bool
	overwritten uint64

	counts       [numEventKinds]uint64
	hops         [numHopKinds]uint64
	drops        [len(metrics.DropReasonNames)]uint64
	predictHits  uint64
	predictTotal uint64

	delay Histogram // end-to-end delivery delays (seconds)
	depth Histogram // per-landmark queue depths at unit boundaries
}

// NewRecorder returns a recorder with a preallocated ring of the given
// capacity (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring:  make([]Event, capacity),
		delay: NewLogHistogram(1, 40),
		depth: NewLogHistogram(1, 32),
	}
}

func (r *Recorder) add(ev Event) {
	r.counts[ev.Kind]++
	if r.wrapped {
		r.overwritten++ // this write reclaims the oldest held event
	}
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
}

// Clone returns a deep copy of the recorder: same capacity, held events,
// counters and histograms, sharing nothing that either copy writes. A
// forked engine records on from a clone of its snapshot's recorder.
func (r *Recorder) Clone() *Recorder {
	cp := *r
	cp.ring = slices.Clone(r.ring)
	cp.delay.counts = slices.Clone(r.delay.counts)
	cp.depth.counts = slices.Clone(r.depth.counts)
	return &cp
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// Overwritten returns the number of events lost to ring wrap-around.
func (r *Recorder) Overwritten() uint64 { return r.overwritten }

// Events appends the held events to dst in chronological order and
// returns the extended slice.
func (r *Recorder) Events(dst []Event) []Event {
	if r.wrapped {
		dst = append(dst, r.ring[r.next:]...)
	}
	return append(dst, r.ring[:r.next]...)
}

// Counters is an exact snapshot of the recorder's aggregate state,
// independent of ring capacity. It marshals directly to JSON for the
// -json summary output.
type Counters struct {
	Events      map[string]uint64 `json:"events"`
	Hops        map[string]uint64 `json:"hops"`
	Drops       map[string]uint64 `json:"drops"`
	PredictHits uint64            `json:"predict_hits"`
	PredictMiss uint64            `json:"predict_misses"`
	Recorded    int               `json:"recorded_events"`
	Overwritten uint64            `json:"overwritten_events"`
	Delay       HistogramSnapshot `json:"delay_hist"`
	QueueDepth  HistogramSnapshot `json:"queue_depth_hist"`
}

// Counters returns the recorder's aggregate snapshot.
func (r *Recorder) Counters() Counters {
	c := Counters{
		Events:      make(map[string]uint64, numEventKinds),
		Hops:        make(map[string]uint64, numHopKinds),
		Drops:       make(map[string]uint64, len(r.drops)),
		PredictHits: r.predictHits,
		PredictMiss: r.predictTotal - r.predictHits,
		Recorded:    r.Len(),
		Overwritten: r.Overwritten(),
		Delay:       r.delay.Snapshot(),
		QueueDepth:  r.depth.Snapshot(),
	}
	for k, n := range r.counts {
		if n > 0 {
			c.Events[EventKind(k).String()] = n
		}
	}
	for h, n := range r.hops {
		if n > 0 {
			c.Hops[HopKind(h).String()] = n
		}
	}
	for d, n := range r.drops {
		if n > 0 {
			c.Drops[metrics.DropReason(d).String()] = n
		}
	}
	return c
}

// Histogram is a fixed-bucket histogram with preallocated counts, so
// observing a value on the enabled path never allocates.
type Histogram struct {
	bounds []float64 // upper bound of bucket i; last bucket is unbounded
	counts []uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewLogHistogram returns a histogram whose bucket upper bounds start at
// first and double per bucket, with buckets+1 counts (the last collects
// overflow).
func NewLogHistogram(first float64, buckets int) Histogram {
	bounds := make([]float64, buckets)
	b := first
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return Histogram{bounds: bounds, counts: make([]uint64, buckets+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
}

// HistogramSnapshot is the exported form of a histogram; Bounds[i] is
// the inclusive upper bound of Counts[i], and the final count collects
// values above the last bound. Empty buckets at the tail are trimmed.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
}

// Snapshot exports the histogram, trimming trailing empty buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	if h.n == 0 {
		return s
	}
	last := 0
	for i, c := range h.counts {
		if c > 0 {
			last = i
		}
	}
	s.Counts = append([]uint64(nil), h.counts[:last+1]...)
	if last < len(h.bounds) {
		s.Bounds = append([]float64(nil), h.bounds[:last+1]...)
	} else {
		s.Bounds = append([]float64(nil), h.bounds...)
	}
	return s
}
