package disrupt

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// The perturbed-source wrapper. The transform is purely sequential over
// the input stream — one visit in, zero or more pieces out — so the
// perturbed stream depends only on the underlying visit sequence, never
// on how it is chunked: stream-invariance across the generators' fill
// workers, chunk sizes and merge windows is inherited from the wrapped
// source, and chunk boundaries
// (including ones landing exactly on a disruption window edge) cannot
// change the output.
//
// Ordering. Every piece derived from input visit v satisfies
// piece.Start >= v.Start (clipping only moves starts later), so a piece
// may order after inputs that arrive later. Pieces therefore go through
// a pending min-heap ordered by trace.VisitBefore, and a pending piece
// is emitted only once the input cursor has passed its start time
// (heap-min.Start < next input's Start): at that point every future
// piece starts at or after the next input's start, so the emission
// order is the strict (Start, Node, Landmark) total order every Source
// must produce. Peak pending size is bounded by the number of clipped
// pieces whose starts the input has not yet reached — in practice a
// handful, in the worst case (one visit spanning the whole trace) the
// stream.
//
// Source deliberately does not implement trace.Spanner: the perturbed
// span differs from the underlying one (clipped visits shrink it), so
// consumers needing the span (sim.NewSharded) fall back to
// trace.ScanSpan over a fresh perturbed stream — the exact span a
// materialized perturbed trace reports, which is what keeps the
// materialized and streamed runs' measurement windows bit-identical.

const maxTime = trace.Time(1) << 62

// Source applies a disruption spec to an underlying trace.Source. Like
// every Source it is single-use; obtain fresh ones via Wrap.
type Source struct {
	src  trace.Source
	spec *Spec
	info trace.SourceInfo
	seed uint64

	chunk []trace.Visit // current input chunk and read cursor
	ci    int
	done  bool

	heap []trace.Visit // pending pieces, min-heap by VisitBefore
	out  []trace.Visit // emission buffer handed to Next callers
	prev []int         // last confirmed landmark per node, -1 unknown

	cuts []window // per-visit scratch: windows to subtract
}

type window struct{ start, end trace.Time }

// NewSource wraps src with the disruption spec. The spec is retained and
// must not be mutated while the source is in use.
func NewSource(src trace.Source, sp *Spec) *Source {
	info := src.Info()
	if !sp.Empty() {
		info.Name += "+disrupt"
	}
	prev := make([]int, info.NumNodes)
	for i := range prev {
		prev[i] = -1
	}
	var seed uint64
	if sp != nil {
		seed = uint64(sp.Seed)
	}
	return &Source{src: src, spec: sp, info: info, seed: seed, prev: prev}
}

// Wrap lifts a source factory to its disrupted counterpart; an empty
// spec returns open unchanged.
func Wrap(open func() trace.Source, sp *Spec) func() trace.Source {
	if sp.Empty() {
		return open
	}
	return func() trace.Source { return NewSource(open(), sp) }
}

// Perturb materializes the disrupted view of a trace — sim.New's input,
// and by construction byte-equal to draining a wrapped streaming source
// over the same visits.
func Perturb(tr *trace.Trace, sp *Spec) (*trace.Trace, error) {
	if sp.Empty() {
		return tr, nil
	}
	return trace.Materialize(NewSource(trace.NewSliceSource(tr, 0), sp))
}

// PerturbArg resolves a -disrupt argument (a preset name or a JSON spec
// file; see Parse) against tr's population over [0, tr.Duration()) and
// perturbs tr with it. dtnflow-sim and dtnflow-inspect -regret both call
// it, so a recording is replayed on the very trace the engine routed on.
func PerturbArg(tr *trace.Trace, arg string) (*trace.Trace, *Spec, error) {
	sp, err := Parse(arg, tr.NumNodes, tr.NumLandmarks, 0, tr.Duration())
	if err != nil {
		return nil, nil, err
	}
	if tr, err = Perturb(tr, &sp); err != nil {
		return nil, nil, fmt.Errorf("disrupt: perturbed trace invalid: %w", err)
	}
	return tr, &sp, nil
}

// Info returns the underlying header, name-tagged "+disrupt".
func (s *Source) Info() trace.SourceInfo { return s.info }

// chunkSize bounds the emission buffer handed out per Next call.
const chunkSize = 2048

// Next returns the next chunk of perturbed visits.
func (s *Source) Next() ([]trace.Visit, bool) {
	if s.done && len(s.heap) == 0 {
		return nil, false
	}
	s.out = s.out[:0]
	for len(s.out) < chunkSize {
		if s.done {
			if len(s.heap) == 0 {
				break
			}
			s.out = append(s.out, s.pop())
			continue
		}
		v, ok := s.nextInput()
		if !ok {
			s.done = true
			continue
		}
		// Emit every pending piece the input has now strictly passed;
		// pieces sharing v's start stay pending so later same-start
		// inputs (smaller node IDs are impossible, but smaller landmarks
		// after a drift remap are not) can still order before them.
		for len(s.heap) > 0 && s.heap[0].Start < v.Start && len(s.out) < chunkSize {
			s.out = append(s.out, s.pop())
		}
		s.process(v)
	}
	if len(s.out) == 0 && s.done && len(s.heap) == 0 {
		return nil, false
	}
	return s.out, true
}

// nextInput returns the next underlying visit in stream order.
func (s *Source) nextInput() (trace.Visit, bool) {
	for s.ci >= len(s.chunk) {
		chunk, ok := s.src.Next()
		if !ok {
			return trace.Visit{}, false
		}
		s.chunk, s.ci = chunk, 0
	}
	v := s.chunk[s.ci]
	s.ci++
	return v, true
}

// process transforms one input visit into pending pieces: drift remap,
// outage and churn window subtraction, then link-fault drops.
func (s *Source) process(v trace.Visit) {
	sp := s.spec
	// Mobility drift: rotate the cohort's landmark from d.At onward.
	// (Start, Node) stays untouched and is unique per valid trace, so a
	// remap can never reorder the stream.
	if l := s.info.NumLandmarks; l > 0 {
		for _, d := range sp.Drifts {
			if d.Mod > 0 && v.Start >= d.At && v.Node%d.Mod == d.Rem {
				v.Landmark = ((v.Landmark+d.Shift)%l + l) % l
			}
		}
	}
	// Collect the windows during which this visit cannot exist: the
	// (post-drift) landmark's outages and the node's churn absences. An
	// outage with End <= Start is empty, as LandmarkDown reads it.
	s.cuts = s.cuts[:0]
	for _, o := range sp.Outages {
		if o.Landmark == v.Landmark && o.Start < o.End && o.Start < v.End && o.End > v.Start {
			s.cuts = append(s.cuts, window{o.Start, o.End})
		}
	}
	for _, c := range sp.Churn {
		up := c.Up
		if up <= c.Down {
			up = maxTime // never returns
		}
		if c.Node == v.Node && c.Down < v.End && up > v.Start {
			s.cuts = append(s.cuts, window{c.Down, up})
		}
	}
	if len(s.cuts) == 0 {
		s.emit(v)
		return
	}
	sort.Slice(s.cuts, func(i, j int) bool { return s.cuts[i].start < s.cuts[j].start })
	cur := v.Start
	for _, w := range s.cuts {
		if w.start > cur {
			hi := w.start
			if hi > v.End {
				hi = v.End
			}
			if hi > cur {
				s.emit(trace.Visit{Node: v.Node, Landmark: v.Landmark, Start: cur, End: hi})
			}
		}
		if w.end > cur {
			cur = w.end
		}
		if cur >= v.End {
			return
		}
	}
	if cur < v.End {
		s.emit(trace.Visit{Node: v.Node, Landmark: v.Landmark, Start: cur, End: v.End})
	}
}

// emit runs the link-fault gate on one piece and, if it survives, pushes
// it onto the pending heap and confirms the node's position.
func (s *Source) emit(v trace.Visit) {
	if v.Node >= 0 && v.Node < len(s.prev) {
		from := s.prev[v.Node]
		for _, lf := range s.spec.Links {
			if lf.From == from && lf.To == v.Landmark && v.Start >= lf.Start && v.Start < lf.End {
				if lf.DropProb >= 1 || s.roll(v.Node, v.Start) < lf.DropProb {
					// The node never registers at To; its confirmed
					// position stays at From for the next transit.
					return
				}
			}
		}
		s.prev[v.Node] = v.Landmark
	}
	s.push(v)
}

// roll is the deterministic per-(node, time) drop draw in [0, 1): a
// splitmix64 finalizer over the spec seed, independent of the simulation
// RNG and of stream chunking.
func (s *Source) roll(node int, t trace.Time) float64 {
	x := s.seed ^ uint64(node)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

func (s *Source) push(v trace.Visit) {
	h := append(s.heap, v)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !trace.VisitBefore(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

func (s *Source) pop() trace.Visit {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(h) && trace.VisitBefore(h[l], h[m]) {
			m = l
		}
		if r < len(h) && trace.VisitBefore(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
	return top
}
