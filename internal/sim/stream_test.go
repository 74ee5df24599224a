package sim

import (
	"reflect"
	"testing"

	"repro/internal/synth"
	"repro/internal/trace"
)

// streamedRun builds and runs an engine over tr through NewSharded and a
// SliceSource in chunks of 3 visits, returning the result and the router's
// callback log.
func streamedRun(t *testing.T, tr *trace.Trace, w *Workload, cfg Config, sh ShardConfig) (*Result, []string) {
	t.Helper()
	r := &recordingRouter{}
	s, err := NewSharded(func() trace.Source { return trace.NewSliceSource(tr, 3) }, r, w, cfg, sh)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(), r.events
}

// epochRows are the epoch lengths the equivalence tests sweep: shorter
// than a visit, the default, and one longer than the whole trace (a single
// epoch).
func epochRows(tr *trace.Trace) []trace.Time {
	return []trace.Time{250, 0, tr.Duration() + 1}
}

// TestStreamMatchesMaterialized pins the one-callback-sequence contract at the
// engine level: a stream chunked three visits at a time replays the exact
// callback sequence and produces the exact summary of New over the
// materialized trace, for every epoch length.
func TestStreamMatchesMaterialized(t *testing.T) {
	tr := twoHopTrace(30)
	cfg := Config{Seed: 7, PacketSize: 1, NodeMemory: 100, TTL: 2000, Unit: 1000, LinkRate: 5}
	mkWorkload := func() *Workload { return NewWorkload(3000, 1, 2000) }

	ref := &recordingRouter{}
	want := New(tr, ref, mkWorkload(), cfg).Run()

	for _, epoch := range epochRows(tr) {
		res, events := streamedRun(t, tr, mkWorkload(), cfg, ShardConfig{Epoch: epoch})
		if !reflect.DeepEqual(res.Summary, want.Summary) {
			t.Errorf("epoch %d: summary differs:\nstreamed %+v\nNew      %+v", epoch, res.Summary, want.Summary)
		}
		if !reflect.DeepEqual(events, ref.events) {
			t.Errorf("epoch %d: callback sequence differs (%d vs %d events)", epoch, len(events), len(ref.events))
		}
		if res.Duration != want.Duration {
			t.Errorf("epoch %d: duration %d vs %d", epoch, res.Duration, want.Duration)
		}
	}
}

// TestStreamTimers checks router-scheduled timers fire at the same times
// through 250 s epochs of a chunked stream as through New's one-day
// epochs, including timers scheduled across epoch boundaries.
func TestStreamTimers(t *testing.T) {
	tr := twoHopTrace(12) // spans 2400 time units
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 5000, Unit: 1 << 40, LinkRate: 1}
	run := func(build func(r Router) interface{ Run() *Result }) []trace.Time {
		fired := []trace.Time{}
		r := &hookRouter{onContact: func(ctx *Context, c *Contact) {
			// Re-arm on the first contact of each landmark-0 visit: one
			// timer inside the current epoch, one far beyond it.
			if c.Landmark == 0 && c.Start < 1000 {
				ctx.Schedule(c.Start+37, func() { fired = append(fired, ctx.Now()) })
				ctx.Schedule(c.Start+1500, func() { fired = append(fired, ctx.Now()) })
			}
		}}
		build(r).Run()
		return fired
	}
	want := run(func(r Router) interface{ Run() *Result } {
		return New(tr, r, nil, cfg)
	})
	streamed := run(func(r Router) interface{ Run() *Result } {
		s, err := NewSharded(func() trace.Source { return trace.NewSliceSource(tr, 3) }, r, nil, cfg,
			ShardConfig{Epoch: 250})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	if len(want) == 0 {
		t.Fatal("no timers fired")
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Errorf("timer fire times differ: 250 s epochs %v, New %v", streamed, want)
	}
}

// TestStreamOnGenerator runs the engine over the streaming DART generator —
// the scale-tier composition — and checks every epoch length yields the
// summary of New over the materialized stream.
func TestStreamOnGenerator(t *testing.T) {
	gen := synth.DefaultDART()
	gen.Nodes = 32
	gen.Landmarks = 16
	gen.Days = 14
	gen.Communities = 4

	mat, err := trace.Materialize(synth.DARTSource(gen))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(mat.Duration())
	cfg.Unit = trace.Day
	mkWorkload := func() *Workload { return NewWorkload(200, cfg.PacketSize, cfg.TTL) }

	ref := New(mat, &recordingRouter{}, mkWorkload(), cfg).Run()

	for _, epoch := range epochRows(mat) {
		open := func() trace.Source { return synth.DARTSource(gen) }
		s, err := NewSharded(open, &recordingRouter{}, mkWorkload(), cfg, ShardConfig{Epoch: epoch})
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		if !reflect.DeepEqual(res.Summary, ref.Summary) {
			t.Errorf("epoch %d: summary differs:\nstreamed %+v\nNew      %+v", epoch, res.Summary, ref.Summary)
		}
		st := s.Stats()
		if st.Visits != len(mat.Visits) {
			t.Errorf("epoch %d: ingested %d visits, trace has %d", epoch, st.Visits, len(mat.Visits))
		}
		if st.Epochs == 0 || st.Events <= st.Visits {
			t.Errorf("epoch %d: implausible stats %+v", epoch, st)
		}
	}
}

// TestStreamHeaderTrace documents the header-only contract: a streamed
// engine's context trace carries dimensions and positions but no visit
// slice.
func TestStreamHeaderTrace(t *testing.T) {
	tr := twoHopTrace(6)
	s, err := NewSharded(func() trace.Source { return trace.NewSliceSource(tr, 2) },
		&recordingRouter{}, nil, Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 100, LinkRate: 1},
		ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := s.Context()
	if len(ctx.Trace.Visits) != 0 {
		t.Errorf("streamed context trace materialized %d visits", len(ctx.Trace.Visits))
	}
	if ctx.Trace.NumNodes != tr.NumNodes || ctx.Trace.NumLandmarks != tr.NumLandmarks {
		t.Errorf("header dims = (%d,%d), want (%d,%d)",
			ctx.Trace.NumNodes, ctx.Trace.NumLandmarks, tr.NumNodes, tr.NumLandmarks)
	}
	s.Run()
}

// TestStreamRejectsUnsorted checks the ingest-side order guard.
func TestStreamRejectsUnsorted(t *testing.T) {
	bad := &trace.Trace{Name: "bad", NumNodes: 2, NumLandmarks: 2, Visits: []trace.Visit{
		{Node: 0, Landmark: 0, Start: 100, End: 200},
		{Node: 0, Landmark: 1, Start: 50, End: 80}, // out of order: never sorted
	}}
	s, err := NewSharded(func() trace.Source { return trace.NewSliceSource(bad, 1) },
		&recordingRouter{}, nil, Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 100, LinkRate: 1},
		ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("engine accepted an out-of-order stream")
		}
	}()
	s.Run()
}

// claimedSpan is a SliceSource that reports a span shifted by skew: a
// trace.Spanner that lies about its stream when skew is non-zero.
type claimedSpan struct {
	*trace.SliceSource
	skewStart, skewEnd trace.Time
}

func (c claimedSpan) Span() (start, end trace.Time) {
	start, end = c.SliceSource.Span()
	return start + c.skewStart, end + c.skewEnd
}

// TestStreamChecksClaimedSpan checks the reader holds a Spanner to its
// word: NewSharded takes the claimed span without a scan, so a claim the
// drained stream does not bear out must fail the run, and an honest one
// must not.
func TestStreamChecksClaimedSpan(t *testing.T) {
	tr := twoHopTrace(6)
	cfg := Config{Seed: 1, PacketSize: 1, NodeMemory: 10, TTL: 100, Unit: 500, LinkRate: 1}
	run := func(skewStart, skewEnd trace.Time) (failed bool) {
		open := func() trace.Source {
			return claimedSpan{trace.NewSliceSource(tr, 2), skewStart, skewEnd}
		}
		s, err := NewSharded(open, &recordingRouter{}, NewWorkload(100, 1, 100), cfg, ShardConfig{Epoch: 300})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { failed = recover() != nil }()
		s.Run()
		return false
	}
	if run(0, 0) {
		t.Error("engine rejected an honest span")
	}
	for _, skew := range [][2]trace.Time{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
		if !run(skew[0], skew[1]) {
			t.Errorf("engine accepted a span skewed by %v", skew)
		}
	}
	empty := &trace.Trace{Name: "empty", NumNodes: 1, NumLandmarks: 1}
	s, err := NewSharded(func() trace.Source { return claimedSpan{trace.NewSliceSource(empty, 0), 0, 1} },
		&recordingRouter{}, nil, cfg, ShardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("engine accepted a non-empty span for an empty stream")
		}
	}()
	s.Run()
}
