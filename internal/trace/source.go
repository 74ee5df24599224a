package trace

import (
	"fmt"

	"repro/internal/geo"
)

// SourceInfo describes the trace a Source streams: the header of a Trace
// without its visits. Positions follow the Trace contract (len 0 or
// NumLandmarks) and must not be mutated by consumers.
type SourceInfo struct {
	Name         string
	NumNodes     int
	NumLandmarks int
	Positions    []geo.Point
}

// header returns a visit-less Trace carrying the source's dimensions.
func (in SourceInfo) header() *Trace {
	return &Trace{
		Name:         in.Name,
		NumNodes:     in.NumNodes,
		NumLandmarks: in.NumLandmarks,
		Positions:    in.Positions,
	}
}

// Header returns a Trace with the source's dimensions and positions but no
// visits. An engine over a stream (sim.NewSharded) runs on such headers:
// routers only ever read NumNodes/NumLandmarks/Positions from the context
// trace.
func (in SourceInfo) Header() *Trace { return in.header() }

// Source streams a trace's visits in time order without materializing the
// whole visit slice. Concatenating every chunk returned by Next yields
// exactly the Visits slice of the equivalent Trace after SortVisits: sorted
// by Start, then Node, then Landmark.
//
// Next returns the next chunk and true, or nil and false once the stream is
// exhausted. A returned chunk is only valid until the next call to Next —
// implementations may reuse the backing array. Empty chunks with ok=true
// are legal mid-stream; consumers must keep calling until ok=false.
//
// A Source is single-use and not safe for concurrent use. Producers that
// can be re-opened cheaply should hand out a fresh Source per consumer
// (see the open-factory convention in sim.NewSharded).
type Source interface {
	Info() SourceInfo
	Next() ([]Visit, bool)
}

// Spanner is an optional Source fast path: sources that know their time
// span without being drained implement it, sparing consumers a scan pass.
type Spanner interface {
	Span() (start, end Time)
}

// VisitBefore is the total visit order every Source must emit:
// (Start, Node, Landmark), the same order SortVisits establishes. It is a
// strict total order for any valid trace (a node never has two visits with
// the same start), so any sort using it yields a unique permutation.
func VisitBefore(a, b Visit) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Landmark < b.Landmark
}

// SliceSource adapts a materialized Trace to the Source interface, yielding
// its visits in fixed-size chunks. It implements Spanner. A copy of a
// SliceSource value is an independent cursor at the same position (the
// chunks are views of the trace's visits, which it never writes).
type SliceSource struct {
	tr    *Trace
	chunk int
	off   int
}

// NewSliceSource returns a Source over tr's visits. chunk <= 0 selects a
// default chunk size. The trace must already be sorted (SortVisits).
func NewSliceSource(tr *Trace, chunk int) *SliceSource {
	if chunk <= 0 {
		chunk = 4096
	}
	return &SliceSource{tr: tr, chunk: chunk}
}

// Info returns the trace header.
func (s *SliceSource) Info() SourceInfo {
	return SourceInfo{
		Name:         s.tr.Name,
		NumNodes:     s.tr.NumNodes,
		NumLandmarks: s.tr.NumLandmarks,
		Positions:    s.tr.Positions,
	}
}

// Next returns the next chunk of visits.
func (s *SliceSource) Next() ([]Visit, bool) {
	if s.off >= len(s.tr.Visits) {
		return nil, false
	}
	end := s.off + s.chunk
	if end > len(s.tr.Visits) {
		end = len(s.tr.Visits)
	}
	out := s.tr.Visits[s.off:end]
	s.off = end
	return out, true
}

// Span returns the underlying trace's span without consuming the source.
func (s *SliceSource) Span() (start, end Time) { return s.tr.Span() }

// Visits returns every visit the source yields, from the first one
// whatever the cursor's position: visit i is stream position i. Callers
// must not write the slice.
func (s *SliceSource) Visits() []Visit { return s.tr.Visits }

// Materialize drains src into a Trace, rejecting out-of-order streams. The
// result carries the source's header and the concatenated visits; it is
// already sorted, so no SortVisits pass runs (and the (Start, Node,
// Landmark) order is verified, not assumed).
func Materialize(src Source) (*Trace, error) {
	tr := src.Info().header()
	n := 0
	var prev Visit
	for {
		chunk, ok := src.Next()
		if !ok {
			return tr, nil
		}
		for _, v := range chunk {
			if n > 0 && VisitBefore(v, prev) {
				return nil, fmt.Errorf("source %q: visit %d (n%d l%d @%d) out of order after (n%d l%d @%d)",
					tr.Name, n, v.Node, v.Landmark, v.Start, prev.Node, prev.Landmark, prev.Start)
			}
			prev = v
			n++
			tr.Visits = append(tr.Visits, v)
		}
	}
}

// ScanSpan drains src and returns the span its visits cover — the first
// start and the maximum end — enforcing the stream order along the way. An
// empty source spans (0, 0). Sources implementing Spanner should be asked
// directly; ScanSpan is the fallback for a second, throwaway instance of a
// cheaply re-openable source.
func ScanSpan(src Source) (start, end Time, err error) {
	n := 0
	var prev Visit
	for {
		chunk, ok := src.Next()
		if !ok {
			return start, end, nil
		}
		for _, v := range chunk {
			if n > 0 && VisitBefore(v, prev) {
				return 0, 0, fmt.Errorf("source %q: visit %d (n%d l%d @%d) out of order after (n%d l%d @%d)",
					src.Info().Name, n, v.Node, v.Landmark, v.Start, prev.Node, prev.Landmark, prev.Start)
			}
			prev = v
			if n == 0 {
				start = v.Start
			}
			if v.End > end {
				end = v.End
			}
			n++
		}
	}
}
