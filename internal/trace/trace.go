// Package trace defines the visit-record trace model that drives every
// simulation in this repository, together with the preprocessing steps the
// paper applies to the DART and DNET traces (Section III-B.1) and the
// statistics behind observations O1–O4 (Table I, Figs. 2–4).
//
// A trace is a time-ordered sequence of visits: node n was associated with
// landmark l from Start to End. A transit is a movement between two
// consecutive visits of the same node to different landmarks.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// Time is a simulation timestamp in seconds since the start of the trace.
type Time int64

// Common durations in seconds.
const (
	Second Time = 1
	Minute Time = 60
	Hour   Time = 3600
	Day    Time = 86400
	Week   Time = 7 * Day
)

// Visit records one association interval between a node and a landmark.
type Visit struct {
	Node     int  // node index, 0-based
	Landmark int  // landmark index, 0-based
	Start    Time // association start
	End      Time // association end; End >= Start
}

// Duration returns the length of the visit.
func (v Visit) Duration() Time { return v.End - v.Start }

// Transit records a movement of a node from one landmark to another:
// the node's visit to From ended at Depart and its next visit, to To,
// started at Arrive.
type Transit struct {
	Node   int
	From   int
	To     int
	Depart Time
	Arrive Time
}

// Trace is a preprocessed mobility trace. It is a plain value: derived
// artifacts (Span, VisitsByNode, Transits, LandmarkSequences, VisitCounts)
// are computed from Visits on each call and returned as fresh slices the
// caller owns, so in-place edits to Visits are always reflected.
type Trace struct {
	Name         string
	NumNodes     int
	NumLandmarks int
	Visits       []Visit     // sorted by Start, then Node
	Positions    []geo.Point // optional landmark positions; len 0 or NumLandmarks
}

// Clone returns a deep copy of the trace.
func (tr *Trace) Clone() *Trace {
	cp := &Trace{
		Name:         tr.Name,
		NumNodes:     tr.NumNodes,
		NumLandmarks: tr.NumLandmarks,
		Visits:       append([]Visit(nil), tr.Visits...),
		Positions:    append([]geo.Point(nil), tr.Positions...),
	}
	return cp
}

// Span returns the first visit start and the last visit end. A trace with
// no visits spans (0, 0).
func (tr *Trace) Span() (start, end Time) {
	if len(tr.Visits) == 0 {
		return 0, 0
	}
	start = tr.Visits[0].Start
	for _, v := range tr.Visits {
		if v.Start < start {
			start = v.Start
		}
		if v.End > end {
			end = v.End
		}
	}
	return start, end
}

// Duration returns the total time spanned by the trace.
func (tr *Trace) Duration() Time {
	s, e := tr.Span()
	return e - s
}

// SortVisits sorts the visits by start time, breaking ties by node and then
// landmark so the order is total and deterministic.
func (tr *Trace) SortVisits() {
	sort.Slice(tr.Visits, func(i, j int) bool {
		return VisitBefore(tr.Visits[i], tr.Visits[j])
	})
}

// Validate checks structural invariants: indices in range, End >= Start,
// visits sorted by start time, and no node in two places at once. It
// returns the first violation found.
func (tr *Trace) Validate() error {
	var prev Time
	for i, v := range tr.Visits {
		if v.Node < 0 || v.Node >= tr.NumNodes {
			return fmt.Errorf("trace %q: visit %d: node %d out of range [0,%d)", tr.Name, i, v.Node, tr.NumNodes)
		}
		if v.Landmark < 0 || v.Landmark >= tr.NumLandmarks {
			return fmt.Errorf("trace %q: visit %d: landmark %d out of range [0,%d)", tr.Name, i, v.Landmark, tr.NumLandmarks)
		}
		if v.End < v.Start {
			return fmt.Errorf("trace %q: visit %d: end %d before start %d", tr.Name, i, v.End, v.Start)
		}
		if v.Start < prev {
			return fmt.Errorf("trace %q: visit %d: starts at %d before previous start %d (unsorted)", tr.Name, i, v.Start, prev)
		}
		prev = v.Start
	}
	if len(tr.Positions) != 0 && len(tr.Positions) != tr.NumLandmarks {
		return fmt.Errorf("trace %q: %d positions for %d landmarks", tr.Name, len(tr.Positions), tr.NumLandmarks)
	}
	// Per-node overlap check.
	byNode := make(map[int][]Visit)
	for _, v := range tr.Visits {
		byNode[v.Node] = append(byNode[v.Node], v)
	}
	for n, vs := range byNode {
		for i := 1; i < len(vs); i++ {
			if vs[i].Start < vs[i-1].End {
				return fmt.Errorf("trace %q: node %d visits overlap: [%d,%d] then [%d,%d]",
					tr.Name, n, vs[i-1].Start, vs[i-1].End, vs[i].Start, vs[i].End)
			}
		}
	}
	return nil
}

// VisitsByNode groups the visits per node, each group in time order.
// Visits with an out-of-range node index are skipped.
func (tr *Trace) VisitsByNode() [][]Visit {
	counts := make([]int, tr.NumNodes)
	for _, v := range tr.Visits {
		if v.Node >= 0 && v.Node < tr.NumNodes {
			counts[v.Node]++
		}
	}
	// One backing array shared by all groups: a single allocation for the
	// visit data, with each node's group a capped sub-slice of it.
	backing := make([]Visit, len(tr.Visits))
	out := make([][]Visit, tr.NumNodes)
	offset := 0
	for n, c := range counts {
		out[n] = backing[offset : offset : offset+c]
		offset += c
	}
	for _, v := range tr.Visits {
		if v.Node >= 0 && v.Node < tr.NumNodes {
			out[v.Node] = append(out[v.Node], v)
		}
	}
	return out
}

// Transits extracts every transit in the trace, ordered by arrival time
// and then node: for each node, consecutive visits to different landmarks
// become one transit. Consecutive visits to the same landmark do not
// produce a transit (preprocessing merges them, but generators may still
// emit them).
func (tr *Trace) Transits() []Transit {
	var out []Transit
	for n, vs := range tr.VisitsByNode() {
		for i := 1; i < len(vs); i++ {
			if vs[i].Landmark == vs[i-1].Landmark {
				continue
			}
			out = append(out, Transit{
				Node:   n,
				From:   vs[i-1].Landmark,
				To:     vs[i].Landmark,
				Depart: vs[i-1].End,
				Arrive: vs[i].Start,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arrive != out[j].Arrive {
			return out[i].Arrive < out[j].Arrive
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// LandmarkSequences returns, for each node, the ordered sequence of
// landmarks it visited (after merging, consecutive entries differ). This is
// the input to the order-k Markov predictor of Section IV-B.
func (tr *Trace) LandmarkSequences() [][]int {
	out := make([][]int, tr.NumNodes)
	for n, vs := range tr.VisitsByNode() {
		seq := make([]int, 0, len(vs))
		for _, v := range vs {
			if len(seq) == 0 || seq[len(seq)-1] != v.Landmark {
				seq = append(seq, v.Landmark)
			}
		}
		out[n] = seq
	}
	return out
}

// Characteristics summarizes a trace in the style of Table I.
type Characteristics struct {
	Name         string
	NumNodes     int
	NumLandmarks int
	Duration     Time
	NumVisits    int
	NumTransits  int
}

// Summarize computes Table I-style characteristics.
func (tr *Trace) Summarize() Characteristics {
	return Characteristics{
		Name:         tr.Name,
		NumNodes:     tr.NumNodes,
		NumLandmarks: tr.NumLandmarks,
		Duration:     tr.Duration(),
		NumVisits:    len(tr.Visits),
		NumTransits:  len(tr.Transits()),
	}
}

// String renders the characteristics as one Table I row.
func (c Characteristics) String() string {
	return fmt.Sprintf("%-8s nodes=%-4d landmarks=%-4d duration=%.1fd visits=%-7d transits=%d",
		c.Name, c.NumNodes, c.NumLandmarks, float64(c.Duration)/float64(Day), c.NumVisits, c.NumTransits)
}

// WriteTo writes the trace in a simple line format:
//
//	# name numNodes numLandmarks
//	node landmark start end
//
// Positions, when present, are written as "P index x y" lines.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	name := strings.ReplaceAll(tr.Name, " ", "_")
	if name == "" {
		name = "-" // sentinel: an empty field would break the header line
	}
	c, err := fmt.Fprintf(bw, "# %s %d %d\n", name, tr.NumNodes, tr.NumLandmarks)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for i, p := range tr.Positions {
		c, err = fmt.Fprintf(bw, "P %d %g %g\n", i, p.X, p.Y)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	for _, v := range tr.Visits {
		c, err = fmt.Fprintf(bw, "%d %d %d %d\n", v.Node, v.Landmark, v.Start, v.End)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// maxPositionIndex bounds the landmark index accepted on a position line:
// a corrupt "P" record must fail parsing instead of sizing the position
// slice from attacker- (or fuzzer-) controlled input.
const maxPositionIndex = 1 << 20

// Read parses a trace previously written by WriteTo.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	tr := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch {
		case fields[0] == "#":
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace line %d: bad header %q", line, text)
			}
			if fields[1] == "-" {
				tr.Name = ""
			} else {
				tr.Name = strings.ReplaceAll(fields[1], "_", " ")
			}
			var err error
			if tr.NumNodes, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			if tr.NumLandmarks, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
		case fields[0] == "P":
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace line %d: bad position %q", line, text)
			}
			idx, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			if idx < 0 || idx > maxPositionIndex {
				return nil, fmt.Errorf("trace line %d: position index %d out of range", line, idx)
			}
			x, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			y, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			for len(tr.Positions) <= idx {
				tr.Positions = append(tr.Positions, geo.Point{})
			}
			tr.Positions[idx] = geo.Point{X: x, Y: y}
		default:
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace line %d: bad visit %q", line, text)
			}
			var v Visit
			var err error
			if v.Node, err = strconv.Atoi(fields[0]); err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			if v.Landmark, err = strconv.Atoi(fields[1]); err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			s, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			e, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: %v", line, err)
			}
			v.Start, v.End = Time(s), Time(e)
			tr.Visits = append(tr.Visits, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.SortVisits()
	return tr, nil
}
