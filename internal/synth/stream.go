package synth

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/trace"
)

// Streaming generators: constant-memory trace.Source implementations of
// the DART and DNET mobility models, built on the same walkers as the
// materializing generators. The topology prologue (landmark positions,
// routes, community assignments) comes from the shared cfg.Seed RNG
// exactly as in DART/DNET, so a streamed scenario shares its geography
// with the materialized one; the per-node dwell/move draws come from a
// per-node RNG derived from (cfg.Seed, node) instead of the one shared
// stream, so nodes can be filled independently — in parallel and without
// holding more than one merge window of visits in memory. The resulting
// trace family is therefore statistically identical to, but not byte
// identical with, the materializing generators; within the family the
// stream is fully deterministic: the same config yields the same visit
// sequence for every fill worker count, chunk size and merge window.
//
// Both sources are trace.Spanners. Span replays fresh walkers rather than
// a second copy of the stream, relying on the horizon clamp every walker
// keeps (walker.go): no visit ends after the generation horizon
// (cfg.Days × Day), so once some visit ends exactly there the rest of the
// stream cannot raise the span's end.

// The fill runs on GOMAXPROCS goroutines and visits are merged one
// streamWindow at a time and handed out streamChunk at a time; none of
// the three changes the emitted stream (the package's tests vary them).
const (
	streamWindow = trace.Day
	streamChunk  = 4096
)

// nodeSeed derives the per-node RNG seed from the scenario seed with a
// splitmix64-style finalizer, so neighbouring node indices get
// uncorrelated streams.
func nodeSeed(seed int64, n int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// sm64 is an 8-byte splitmix64 rand.Source64. The stock math/rand source
// carries ~5 kB of state; with 10k+ walkers the per-node RNGs alone would
// rival the merge window for peak memory, so node streams use this
// instead. (The topology prologue keeps the stock source — it must match
// the materializing generators draw for draw.)
type sm64 struct{ s uint64 }

func (r *sm64) Seed(seed int64) { r.s = uint64(seed) }

func (r *sm64) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *sm64) Int63() int64 { return int64(r.Uint64() >> 1) }

// nodeRand returns node n's private RNG.
func nodeRand(seed int64, n int) *rand.Rand {
	return rand.New(&sm64{s: uint64(nodeSeed(seed, n))})
}

// streamWalker is the resumable per-node state machine shared by both
// mobility models (walker.go).
type streamWalker interface {
	// clock returns the start time of the walker's next step.
	clock() trace.Time
	// step runs one iteration, appending emitted visits to buf.
	step(rng *rand.Rand, buf []trace.Visit) ([]trace.Visit, bool)
}

func (w *dartWalker) clock() trace.Time { return w.t }
func (w *dnetWalker) clock() trace.Time { return w.t }

// nodeStream pairs a walker with its private RNG and its emitted-but-not-
// yet-released visits (a step may emit past the current window edge; the
// overshoot waits in buf, already in start order).
type nodeStream struct {
	w    streamWalker
	rng  *rand.Rand
	buf  []trace.Visit
	done bool
}

// streamSource drives a population of node walkers window by window.
type streamSource struct {
	info    trace.SourceInfo
	end     trace.Time // generation horizon (cfg.Days worth)
	window  trace.Time
	chunk   int
	workers int

	fresh   func(n int) nodeStream // node n's walker and RNG before any step
	nodes   []nodeStream
	batch   []trace.Visit // current window, merged and sorted
	off     int           // emit offset into batch
	now     trace.Time    // start of the next window
	flushed bool          // final window processed; batch is the tail
}

// Info returns the stream's trace header.
func (s *streamSource) Info() trace.SourceInfo { return s.info }

// Span returns the stream's exact span — the first visit start and the
// largest visit end, (0, 0) for an empty stream — without draining it. It
// replays fresh walkers one node at a time and never advances the
// source's own, so it may be called at any point of the stream.
//
// Each walker emits its node's visits in start order, so the first start
// is the minimum over nodes of each node's first emitted start: a step or
// two per node. The end is the running maximum End over whole walker runs,
// and no End exceeds the horizon s.end, so once the maximum reaches s.end
// the remaining nodes only need their first visit. Usually the first node
// gets there (its last visit is clamped to the horizon); a node whose last
// visit went unlogged leaves the search to the next node.
func (s *streamSource) Span() (start, end trace.Time) {
	start, end, _ = s.span()
	return start, end
}

// span is Span plus the number of walkers it ran past their first visit.
func (s *streamSource) span() (start, end trace.Time, ran int) {
	found := false
	var buf []trace.Visit
	for n := range s.nodes {
		ns := s.fresh(n)
		done := false
		for len(buf) == 0 && !done {
			buf, done = ns.w.step(ns.rng, buf)
		}
		if len(buf) == 0 {
			continue // the node never emits a visit
		}
		if !found || buf[0].Start < start {
			start, found = buf[0].Start, true
		}
		for first := true; ; first = false {
			for _, v := range buf {
				end = max(end, v.End)
			}
			buf = buf[:0]
			if done || end >= s.end {
				break
			}
			if first {
				ran++
			}
			buf, done = ns.w.step(ns.rng, buf)
		}
	}
	return start, end, ran
}

// Next returns the next chunk of the merged visit stream.
func (s *streamSource) Next() ([]trace.Visit, bool) {
	for s.off >= len(s.batch) {
		if s.flushed {
			return nil, false
		}
		s.advance()
	}
	hi := s.off + s.chunk
	if hi > len(s.batch) {
		hi = len(s.batch)
	}
	out := s.batch[s.off:hi]
	s.off = hi
	return out, true
}

// advance generates the next window: every walker is filled until its
// clock passes the window edge (across a bounded worker pool), then each
// node's visits starting inside the window are released into one batch and
// sorted into the canonical (Start, Node, Landmark) order. Per-node RNGs
// make the fill embarrassingly parallel, and the strict total order makes
// the sorted batch independent of worker count and scheduling.
func (s *streamSource) advance() {
	until := s.now + s.window
	s.batch = s.batch[:0]
	s.off = 0

	w := s.workers
	if w > len(s.nodes) {
		w = len(s.nodes)
	}
	if w < 1 {
		w = 1
	}
	per := (len(s.nodes) + w - 1) / w
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		lo, hi := g*per, (g+1)*per
		if hi > len(s.nodes) {
			hi = len(s.nodes)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ns := &s.nodes[i]
				for !ns.done && ns.w.clock() < until {
					ns.buf, ns.done = ns.w.step(ns.rng, ns.buf)
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	for i := range s.nodes {
		ns := &s.nodes[i]
		k := 0
		for k < len(ns.buf) && ns.buf[k].Start < until {
			k++
		}
		s.batch = append(s.batch, ns.buf[:k]...)
		ns.buf = append(ns.buf[:0], ns.buf[k:]...)
	}
	// (Start, Node, Landmark) is a strict total order over distinct visits,
	// so the unstable non-reflective sort realises the canonical sequence.
	slices.SortFunc(s.batch, func(a, b trace.Visit) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		if a.Node != b.Node {
			return a.Node - b.Node
		}
		return a.Landmark - b.Landmark
	})

	s.now = until
	if until >= s.end {
		// Every visit starts before the horizon, so the window covering
		// the horizon drains all walkers and all buffers.
		s.flushed = true
	}
}

// newStreamSource assembles a source over a population of fresh walkers.
func newStreamSource(info trace.SourceInfo, days int, fresh func(n int) nodeStream) *streamSource {
	nodes := make([]nodeStream, info.NumNodes)
	for n := range nodes {
		nodes[n] = fresh(n)
	}
	return &streamSource{
		info:    info,
		end:     trace.Time(days) * trace.Day,
		window:  streamWindow,
		chunk:   streamChunk,
		workers: runtime.GOMAXPROCS(0),
		fresh:   fresh,
		nodes:   nodes,
	}
}

// DARTSource returns a streaming DART generator: same campus topology as
// DART(cfg), per-student streams derived from (cfg.Seed, node). Peak
// memory is one merge window of visits plus per-student walker state,
// independent of cfg.Days and linear in cfg.Nodes.
func DARTSource(cfg DARTConfig) trace.Source {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := newDARTTopo(cfg, rng)
	info := trace.SourceInfo{
		Name:         "DART",
		NumNodes:     cfg.Nodes,
		NumLandmarks: cfg.Landmarks,
		Positions:    tp.pos,
	}
	return newStreamSource(info, cfg.Days, func(n int) nodeStream {
		nrng := nodeRand(cfg.Seed, n)
		return nodeStream{w: newDARTWalker(tp, n, nrng), rng: nrng}
	})
}

// DNETSource returns a streaming DNET generator: same town topology and
// route templates as DNET(cfg), per-bus streams derived from
// (cfg.Seed, bus).
func DNETSource(cfg DNETConfig) trace.Source {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := newDNETTopo(cfg, rng)
	info := trace.SourceInfo{
		Name:         "DNET",
		NumNodes:     cfg.Buses,
		NumLandmarks: cfg.Landmarks,
		Positions:    tp.pos,
	}
	return newStreamSource(info, cfg.Days, func(b int) nodeStream {
		brng := nodeRand(cfg.Seed, b)
		return nodeStream{w: newDNETWalker(tp, b, brng), rng: brng}
	})
}
