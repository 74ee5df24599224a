// Package sim provides the deterministic trace-driven discrete-event
// engine every router in this repository runs on. The trace defines
// connectivity: a node is connected to a landmark's central station for the
// duration of each visit, and two nodes are in contact while visiting the
// same landmark (Section III-A). Routers plug in through the Router
// interface and move packets with the Context transfer primitives, which
// enforce node memory limits and account the paper's cost metrics.
package sim

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Packet is a single-copy data packet routed between landmarks
// (Section III-A.2). DTN-FLOW annotates NextHop/ExpDelay and, with loop
// correction on, Path; other routers ignore them, and the engine only
// initialises NextHop/ExpDelay at generation.
//
// The fields are laid out data-oriented: everything a forwarding pass
// touches per candidate — expiry, size, routing annotations, terminal
// state — sits first, so a scan over a buffer stays within the leading
// bytes of each packet; metadata read only at generation, delivery and
// telemetry time follows.
type Packet struct {
	// Hot: consulted on every forwarding-pass candidate scan.
	Expiry trace.Time // Created + TTL
	Size   int64
	// NextHop is the landmark the current carrier is expected to bring
	// the packet to; -1 when unset.
	NextHop int
	// ExpDelay is the expected overall delay (seconds) from the landmark
	// that last forwarded the packet to its destination, inserted per
	// step 3 of the routing algorithm. Infinite when unset.
	ExpDelay float64
	ID       int
	Dst      int   // destination landmark
	pos      int   // slot index in the holding Buffer; -1 when unbuffered
	state    uint8 // stateDelivered | stateDropped

	// Cold: read at generation/terminal/telemetry time only.
	Src     int // source landmark
	DstNode int // destination node for node-routing mode; -1 otherwise
	Created trace.Time
	// Path records the landmarks whose stations have held the packet, in
	// order, for routing-loop detection (Section IV-E.2). DTN-FLOW owns
	// it and writes it only when loop correction (core.Config.LoopFix) is
	// on; otherwise it stays nil.
	Path []int
}

// Packet terminal-state bits.
const (
	stateDelivered uint8 = 1 << iota
	stateDropped
)

// Remaining returns the remaining TTL at time now (can be negative).
func (p *Packet) Remaining(now trace.Time) trace.Time { return p.Expiry - now }

// Expired reports whether the packet's TTL has passed at time now.
func (p *Packet) Expired(now trace.Time) bool { return now >= p.Expiry }

// Done reports whether the packet has left the system.
func (p *Packet) Done() bool { return p.state != 0 }

// Delivered reports whether the packet reached its destination.
func (p *Packet) Delivered() bool { return p.state&stateDelivered != 0 }

// Dropped reports whether the packet was dropped.
func (p *Packet) Dropped() bool { return p.state&stateDropped != 0 }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %d->%d", p.ID, p.Src, p.Dst)
}

// Buffer is an ordered packet store with a byte capacity. Stations use an
// unlimited buffer (capacity <= 0); nodes use their memory size.
//
// Internally the store is a slot array: each packet records its slot in
// Packet.pos, so Remove is O(1) — it nils the slot and leaves a tombstone.
// Packets compacts lazily, preserving insertion order; since a packet is
// held by at most one buffer at a time (single-copy routing), the pos field
// is unambiguous.
type Buffer struct {
	Capacity int64 // bytes; <= 0 means unlimited
	used     int64
	packets  []*Packet // slot array; nil slots are tombstones
	live     int       // packets minus tombstones
	// minExpiry is a lower bound on the Expiry of every stored packet
	// (loose after removals, tightened by expiry sweeps). It lets
	// expireFromBuffer skip buffers that cannot hold an expired packet.
	minExpiry trace.Time
}

// NewBuffer returns a buffer with the given capacity.
func NewBuffer(capacity int64) *Buffer { return &Buffer{Capacity: capacity} }

// Used returns the bytes currently stored.
func (b *Buffer) Used() int64 { return b.used }

// Free returns the free bytes, or a very large value when unlimited.
func (b *Buffer) Free() int64 {
	if b.Capacity <= 0 {
		return 1 << 62
	}
	return b.Capacity - b.used
}

// Len returns the number of stored packets.
func (b *Buffer) Len() int { return b.live }

// Fits reports whether a packet of the given size fits.
func (b *Buffer) Fits(size int64) bool { return b.Capacity <= 0 || b.used+size <= b.Capacity }

// Add stores p. It reports false (and does not store) when p does not fit.
func (b *Buffer) Add(p *Packet) bool {
	if !b.Fits(p.Size) {
		return false
	}
	p.pos = len(b.packets)
	b.packets = append(b.packets, p)
	b.used += p.Size
	b.live++
	if b.live == 1 || p.Expiry < b.minExpiry {
		b.minExpiry = p.Expiry
	}
	return true
}

// Remove deletes p from the buffer, reporting whether it was present.
func (b *Buffer) Remove(p *Packet) bool {
	i := p.pos
	if i < 0 || i >= len(b.packets) || b.packets[i] != p {
		return false
	}
	b.packets[i] = nil
	p.pos = -1
	b.used -= p.Size
	b.live--
	return true
}

// Packets returns the stored packets in insertion order. The caller must
// not mutate the returned slice; it is invalidated by Add/Remove.
func (b *Buffer) Packets() []*Packet {
	if b.live != len(b.packets) {
		b.compact()
	}
	return b.packets
}

// compact squeezes tombstones out of the slot array, preserving insertion
// order and rewriting each survivor's pos.
func (b *Buffer) compact() {
	w := 0
	for _, p := range b.packets {
		if p != nil {
			p.pos = w
			b.packets[w] = p
			w++
		}
	}
	for i := w; i < len(b.packets); i++ {
		b.packets[i] = nil
	}
	b.packets = b.packets[:w]
}

// Node is one mobile device.
type Node struct {
	ID     int
	Buffer *Buffer

	// At is the landmark the node is currently visiting, or -1.
	At int
	// VisitStart/VisitEnd bound the current (or last) visit.
	VisitStart, VisitEnd trace.Time
	// Prev is the landmark of the previous (different) visit, or -1; nodes
	// report it on arrival for bandwidth measurement (Section IV-C.1).
	Prev int
	// PrevDepart is when the node left Prev.
	PrevDepart trace.Time
}

// Station is the central station of one landmark: a static node with high
// storage and processing capacity (Section III-A.1). Its buffer is
// unlimited, matching the experiment settings ("the memory of the landmark
// was not limited").
type Station struct {
	ID     int // landmark index
	Buffer *Buffer
}

// Contact describes one node-landmark association being processed. Budget
// is the remaining number of packet transfers allowed during this contact
// (derived from the contact duration and the link rate); every transfer
// primitive decrements it.
//
// Lifetime contract: the engine holds one Contact and rewrites it for
// every arrival, so a *Contact is valid only during the OnContact call it
// is passed to. Callees must not retain the pointer past that call — not
// in router state, not in a scheduled timer's closure; copy the fields
// they need instead. To recognise a contact later, key on (Node.ID,
// Start): a node never has two visits with the same start.
type Contact struct {
	Node     *Node
	Landmark int
	Start    trace.Time
	End      trace.Time
	Budget   int
}

// Router is a DTN routing algorithm under test.
type Router interface {
	// Name identifies the algorithm in result tables.
	Name() string
	// Init is called once before the run starts.
	Init(ctx *Context)
	// OnContact is called when a node connects to a landmark station.
	// The router performs its uploads, downloads and peer exchanges here.
	// c is valid only during this call and must not be retained (see
	// Contact).
	OnContact(ctx *Context, c *Contact)
	// OnDepart is called when a node's visit ends.
	OnDepart(ctx *Context, n *Node, landmark int)
	// OnGenerate is called when a new packet appears at its source
	// landmark's station (already stored there by the engine).
	OnGenerate(ctx *Context, p *Packet)
	// OnTimeUnit is called at every measurement time-unit boundary with
	// the sequence number of the completed unit (starting at 0).
	OnTimeUnit(ctx *Context, seq int)
}

// Result is the outcome of one simulation run.
type Result struct {
	Summary  metrics.Summary
	Raw      *metrics.Collector
	Duration trace.Time // simulated span from warmup end to trace end
}
